package seqsim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds, err := Generate(rng, Params{Species: 5, SeqLen: 153})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, ds.Records()); err != nil {
		t.Fatal(err)
	}
	records, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("%d records", len(records))
	}
	for i, r := range records {
		if r.Name != ds.Matrix.Name(i) {
			t.Fatalf("record %d name %q", i, r.Name)
		}
		if !bytes.Equal(r.Seq, ds.Sequences[i]) {
			t.Fatalf("record %d sequence mismatch", i)
		}
	}
	// The matrix built from the FASTA round trip equals the original.
	m, err := MatrixFromSequences(records)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != ds.Matrix.String() {
		t.Fatal("matrix mismatch after FASTA round trip")
	}
}

func TestReadFASTAHandlesNAndErrors(t *testing.T) {
	records, err := ReadFASTA(strings.NewReader(">a\nACGN\n>b\nAC GT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(records[0].Seq) != "ACGN" || string(records[1].Seq) != "ACGT" {
		t.Fatalf("records = %+v", records)
	}
	// N sites are skipped in distances.
	m, err := MatrixFromSequences(records)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 0 {
		t.Fatalf("N-masked distance = %g, want 0", m.At(0, 1))
	}
	for _, bad := range []string{
		"",           // empty
		"ACGT\n",     // sequence before header
		">\nACGT\n",  // empty name
		">a\nACGX\n", // invalid base
	} {
		if _, err := ReadFASTA(strings.NewReader(bad)); err == nil {
			t.Errorf("want error for %q", bad)
		}
	}
	// Length mismatch is rejected at matrix construction.
	recs := []Record{{Name: "a", Seq: []byte("ACG")}, {Name: "b", Seq: []byte("AC")}}
	if _, err := MatrixFromSequences(recs); err == nil {
		t.Error("want error for unequal lengths")
	}
	if _, err := MatrixFromSequences(nil); err == nil {
		t.Error("want error for no sequences")
	}
}
