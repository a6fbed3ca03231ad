package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evotree/internal/bb"
	"evotree/internal/matrix"
)

// FuzzWireDecode throws arbitrary bodies at the coordinator's three POST
// endpoints and checks the wire contract end to end:
//
//   - a body over maxBodyBytes answers 413;
//   - a body the strict decoder rejects (malformed JSON, unknown field,
//     anything but white space after the value, NaN/out-of-range
//     numbers) answers 400;
//   - a well-formed body naming the wrong job answers 410;
//   - a result for a unit outside the farm answers 400;
//   - a bound whose offered solution does not verify answers 422;
//   - everything else answers 200 — never a 5xx, never a panic —
//     and every response body is itself valid JSON.
//
// The oracle re-runs the same strict decode the handlers use, so the
// expected status is computed independently of the handler under test.
func FuzzWireDecode(f *testing.F) {
	m := matrix.Random0100(rand.New(rand.NewSource(7)), 8)
	c, err := NewCoordinator(m, Options{Workers: 1, BB: bb.DefaultOptions(), PollHold: time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	job := c.job

	f.Add(byte(0), []byte(`{}`))
	f.Add(byte(0), []byte(`{"job":"`+job+`","worker":"w"}`))
	f.Add(byte(0), []byte(`{"job":"nope","worker":"w"}`))
	f.Add(byte(0), []byte(`{"job":"`+job+`","worker":"w","extra":1}`))
	f.Add(byte(0), []byte(`{"job":"`+job+`"} {}`))
	f.Add(byte(0), []byte(`not json at all`))
	f.Add(byte(1), []byte(`{"job":"`+job+`","worker":"w","unit":999,"seq":1}`))
	f.Add(byte(1), []byte(`{"job":"`+job+`","worker":"w","unit":-1}`))
	f.Add(byte(1), []byte(`{"job":"`+job+`","worker":"w","unit":0,"seq":0}`))
	f.Add(byte(1), []byte(`{"job":"`+job+`","worker":"w","unit":0,"stats":{"expanded":NaN}}`))
	f.Add(byte(2), []byte(`{"job":"`+job+`","worker":"w","solution":{"path":[],"cost":-5}}`))
	f.Add(byte(2), []byte(`{"job":"`+job+`","worker":"w","solution":{"path":[0,1],"cost":1e999}}`))
	f.Add(byte(2), []byte(`{"job":"`+job+`","worker":"w","solution":{"path":[0,0,0,0,0,0,0],"cost":12}}`))
	f.Add(byte(0), []byte(`{"job":"`+job+`","worker":"w"}}`))
	f.Add(byte(0), []byte(`{"job":"`+job+`","worker":"w"}]`))

	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		kind %= 3
		path := [3]string{pathLease, pathResult, pathBound}[kind]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)

		want, boundOffer := expectedWireStatus(kind, body, job, len(c.units))
		switch {
		case boundOffer:
			// Offer verification (path replay, cost arithmetic) is the
			// handler's own judgement; the contract is only that a
			// verified offer is 200 and a rejected one is 422.
			if rr.Code != http.StatusOK && rr.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s %.200q: got %d, want 200 or 422", path, body, rr.Code)
			}
		case rr.Code != want:
			t.Fatalf("%s %.200q: got %d, want %d\nresponse: %s", path, body, rr.Code, want, rr.Body.Bytes())
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("%s %.200q: response is not valid JSON: %q", path, body, rr.Body.Bytes())
		}
	})
}

// expectedWireStatus independently computes the status the contract
// promises for one POST body. boundOffer is true when the status
// depends on offer verification (200 or 422).
func expectedWireStatus(kind byte, body []byte, job string, units int) (want int, boundOffer bool) {
	if len(body) > maxBodyBytes {
		return http.StatusRequestEntityTooLarge, false
	}
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return err
		}
		if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
			return errors.New("trailing data")
		}
		return nil
	}
	switch kind {
	case 0:
		var req leaseRequest
		if strict(&req) != nil {
			return http.StatusBadRequest, false
		}
		if req.Job != job {
			return http.StatusGone, false
		}
		return http.StatusOK, false
	case 1:
		var req resultRequest
		if strict(&req) != nil {
			return http.StatusBadRequest, false
		}
		if req.Job != job {
			return http.StatusGone, false
		}
		if req.Unit < 0 || req.Unit >= units {
			return http.StatusBadRequest, false
		}
		return http.StatusOK, false
	default:
		var req boundRequest
		if strict(&req) != nil {
			return http.StatusBadRequest, false
		}
		if req.Job != job {
			return http.StatusGone, false
		}
		return http.StatusOK, true
	}
}
