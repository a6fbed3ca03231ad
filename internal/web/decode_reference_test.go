package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"evotree/internal/matrix"
)

// referenceDecode is decodeRequest before the envelope fast path, kept
// verbatim as the reference FuzzDecodeRequest compares against: one
// encoding/json decoder over the streamed body, with no check of what
// follows the object.
func referenceDecode(s *Server, w http.ResponseWriter, r *http.Request) (*Request, int, error) {
	limit := s.MaxBodyBytes
	if limit <= 0 {
		limit = 1 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	ct := r.Header.Get("Content-Type")
	mt, _, _ := mime.ParseMediaType(ct)
	req := &Request{}
	switch mt {
	case "application/json":
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			if isBodyTooLarge(err) {
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds the %d-byte limit", limit)
			}
			return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
		}
	case "application/x-www-form-urlencoded", "multipart/form-data":
		if err := r.ParseForm(); err != nil {
			if isBodyTooLarge(err) {
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds the %d-byte limit", limit)
			}
			return nil, http.StatusBadRequest, fmt.Errorf("bad form: %w", err)
		}
		req.Matrix = r.PostFormValue("matrix")
		req.Fasta = r.PostFormValue("fasta")
		req.Algorithm = r.PostFormValue("algorithm")
		req.ThreeThree = r.PostFormValue("threeThree") != ""
		req.SVG = r.PostFormValue("svg") != ""
	default:
		return nil, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported Content-Type %q: use application/json, application/x-www-form-urlencoded, or multipart/form-data", ct)
	}
	return req, 0, nil
}

type decodeFunc func(http.ResponseWriter, *http.Request) (*Request, int, error)

// decodeBody runs decode on a JSON POST of body.
func decodeBody(decode decodeFunc, body []byte) (*Request, int, error) {
	r := httptest.NewRequest("POST", "/api/tree", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return decode(httptest.NewRecorder(), r)
}

// perfbenchBody is a request shaped like the service benchmark's: an
// n-species perturbed-clock matrix for the compact algorithm.
func perfbenchBody(rng *rand.Rand, n int) []byte {
	body, err := json.Marshal(Request{Matrix: matrix.PerturbedUltrametric(rng, n, 100, 0.8).String(), Algorithm: "compact"})
	if err != nil {
		panic(err)
	}
	return body
}

// FuzzDecodeRequest: for any JSON body, decodeRequest returns
// referenceDecode's Request, status and error text, except that an object
// followed by anything but white space now answers 400.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"matrix":"4\na 0 2 8 8\nb 2 0 8 8\nc 8 8 0 4\nd 8 8 4 0\n","algorithm":"bb"}`,
		`{"matrix":"2\r\na\t0 1\r\nb 1 0","threeThree":true,"svg":false}`,
		`{"fasta":">a\nAC\n>b\nAG\n","algorithm":"upgmm","svg":true}`,
		` { "matrix" : "x" , "algorithm" : "compact" } ` + "\n",
		`{}`, `{"matrix":"x"} trailing`, `{"matrix":"x"}{"matrix":"y"}`, `{"matrix":"x"}}`,
		`{"Matrix":"x"}`, `{"matrx":"x"}`, `{"matrix":"x","matrix":"y"}`, `{"matrix":null}`,
		`{"matrix":"2\"\/"}`, `{"svg":1}`, `{"threeThree":"true"}`, `{"matrix":"é"}`,
		`{"matrix":"a\`, `{"matrix":"\x"}`, `[]`, `"matrix"`, `12`, ``, `{`, "\xef\xbb\xbf{}",
	} {
		f.Add([]byte(seed))
	}
	f.Add(perfbenchBody(rand.New(rand.NewSource(1)), 6))
	s := NewServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantCode, wantErr := decodeBody(func(w http.ResponseWriter, r *http.Request) (*Request, int, error) {
			return referenceDecode(s, w, r)
		}, body)
		got, code, err := decodeBody(s.decodeRequest, body)
		if wantErr == nil && !json.Valid(body) {
			// The reference decoded an object and ignored what followed.
			if code != http.StatusBadRequest || err == nil || err.Error() != "bad JSON: trailing data after the request object" {
				t.Fatalf("trailing data: status %d, error %v; want 400 and the trailing-data error\nbody: %q", code, err, body)
			}
			return
		}
		if code != wantCode || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("status %d, error %v; reference %d, %v\nbody: %q", code, err, wantCode, wantErr, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %+v; reference %+v\nbody: %q", got, want, body)
		}
	})
}

var benchMatrix *matrix.Matrix

// BenchmarkDecodeRequest times one request from body bytes to matrix —
// decodeRequest then inputMatrix — on bodies shaped like the service
// benchmark's.
func BenchmarkDecodeRequest(b *testing.B) {
	s := NewServer()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{20, 26, 32} {
		body := perfbenchBody(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest("POST", "/api/tree", nil)
			r.Header.Set("Content-Type", "application/json")
			r.ContentLength = int64(len(body))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Body = io.NopCloser(bytes.NewReader(body))
				req, _, err := s.decodeRequest(w, r)
				if err != nil {
					b.Fatal(err)
				}
				if benchMatrix, err = s.inputMatrix(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
