package web

import (
	"bytes"
	"strings"
)

// decodeEnvelope decodes the request body clients send: one JSON object
// whose keys are Request's five tags, each at most once; string values of
// printable ASCII whose only escapes are \n, \r and \t; true or false for
// the flags; and nothing after the object but white space. It reports
// false, with a zero Request, for every other body, which the caller
// hands to encoding/json. For a body it accepts, encoding/json decodes the
// same Request.
func decodeEnvelope(body []byte) (Request, bool) {
	l := envelopeLexer{b: body}
	var req Request
	l.space()
	if !l.next('{') {
		return Request{}, false
	}
	l.space()
	if !l.next('}') {
		var seen uint8
		for {
			key, ok := l.key()
			if !ok {
				return Request{}, false
			}
			l.space()
			if !l.next(':') {
				return Request{}, false
			}
			l.space()
			var bit uint8
			switch string(key) {
			case "matrix":
				bit = 1
				req.Matrix, ok = l.str()
			case "fasta":
				bit = 2
				req.Fasta, ok = l.str()
			case "algorithm":
				bit = 4
				req.Algorithm, ok = l.str()
			case "threeThree":
				bit = 8
				req.ThreeThree, ok = l.boolean()
			case "svg":
				bit = 16
				req.SVG, ok = l.boolean()
			}
			// encoding/json lets a repeated key overwrite the first;
			// leave that, and unknown keys, to it.
			if !ok || bit == 0 || seen&bit != 0 {
				return Request{}, false
			}
			seen |= bit
			l.space()
			if l.next('}') {
				break
			}
			if !l.next(',') {
				return Request{}, false
			}
			l.space()
		}
	}
	l.space()
	if l.i != len(l.b) {
		return Request{}, false
	}
	return req, true
}

// envelopeLexer walks a request body for decodeEnvelope.
type envelopeLexer struct {
	b []byte
	i int
}

// space skips JSON white space.
func (l *envelopeLexer) space() {
	for l.i < len(l.b) {
		switch l.b[l.i] {
		case ' ', '\t', '\n', '\r':
			l.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte.
func (l *envelopeLexer) next(c byte) bool {
	if l.i < len(l.b) && l.b[l.i] == c {
		l.i++
		return true
	}
	return false
}

// key consumes a string of plain bytes (no escapes) and returns its
// bytes.
func (l *envelopeLexer) key() ([]byte, bool) {
	if !l.next('"') {
		return nil, false
	}
	start := l.i
	for l.i < len(l.b) && plain[l.b[l.i]] {
		l.i++
	}
	end := l.i
	return l.b[start:end], l.next('"')
}

// str consumes a string of plain bytes and \n, \r and \t escapes, and
// returns it decoded.
func (l *envelopeLexer) str() (string, bool) {
	if !l.next('"') {
		return "", false
	}
	b, i := l.b, l.i
	start, escapes := i, 0
	for {
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i+1 >= len(b) || b[i] != '\\' {
			break
		}
		switch b[i+1] {
		case 'n', 'r', 't':
			i += 2
			escapes++
		default:
			return "", false
		}
	}
	l.i = i
	raw := b[start:i]
	if !l.next('"') {
		return "", false
	}
	if escapes == 0 {
		return string(raw), true
	}
	var sb strings.Builder
	sb.Grow(len(raw) - escapes)
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			return sb.String(), true
		}
		sb.Write(raw[:k])
		switch raw[k+1] {
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		}
		raw = raw[k+2:]
	}
}

// boolean consumes true or false.
func (l *envelopeLexer) boolean() (bool, bool) {
	rest := l.b[l.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		l.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		l.i += 5
		return false, true
	}
	return false, false
}

// plain marks the bytes a string may hold as they are: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()
