package web

import (
	"math/rand"
	"testing"
)

// TestDecodeEnvelopeShape: the fast path takes exactly the shape clients
// send, perfbench's bodies included, and leaves every other body to
// encoding/json.
func TestDecodeEnvelopeShape(t *testing.T) {
	for _, body := range []string{
		string(perfbenchBody(rand.New(rand.NewSource(1)), 32)),
		`{"matrix":"2\na 0 1\r\nb 1 0\n","fasta":"","algorithm":"bb","threeThree":true,"svg":false}`,
		" {\n\t\"fasta\" : \">a\\nAC\" , \"svg\":true }\r\n",
		`{}`,
	} {
		if _, ok := decodeEnvelope([]byte(body)); !ok {
			t.Errorf("fast path refused %q", body)
		}
	}
	for _, body := range []string{
		`{"matrix":"\u0032"}`, `{"matrix":"2\"x"}`, `{"matrix":"2\/x"}`, "{\"matrix\":\"\x7f\"}",
		`{"matrix":"é"}`, `{"matrix":null}`, `{"Matrix":"x"}`, `{"matrx":"x"}`,
		`{"matrix":"x","matrix":"y"}`, `{"svg":true,"svg":false}`, `{"svg":1}`, `{"svg":"true"}`,
		`{"matrix":"x"} x`, `{"matrix":"x"}{}`, `{"matrix":"x",}`, `{"matrix":"x"`, `[]`, ``,
	} {
		if _, ok := decodeEnvelope([]byte(body)); ok {
			t.Errorf("fast path took %q", body)
		}
	}
}
