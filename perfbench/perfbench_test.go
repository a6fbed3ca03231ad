package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the tests compare against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runQuick runs one workload at tiny sizes and returns the parsed result
// line, checking that it is the last line printed.
func runQuick(t *testing.T, cfg config) result {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	var out bytes.Buffer
	if err := printReport(&out, cfg, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace=%v: last line is not a result: %v", cfg.workload, cfg.trace, err)
	}
	return res
}

func names(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestQuickRunsPrintDeclaredMetrics runs every workload untraced and
// traced at tiny sizes: every output must pass its checks, and the metric
// names and units printed must be exactly those BENCHMARK.json declares.
func TestQuickRunsPrintDeclaredMetrics(t *testing.T) {
	spec := readSpec(t)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
		if got := findWorkload(w.Name); got == nil || got.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json and workloads.go disagree on it or its why", w.Name)
		}
	}
	if len(declared) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %v, the benchmark runs %s", declared, workloadNames())
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := names(spec.EndToEnd)
			if traced {
				want = names(spec.PerLayer)
			}
			cfg := config{workload: w.name, seed: 3, seconds: 0.3, trace: traced, quick: true, spansDir: dir}
			res := runQuick(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !equalMaps(got, want) {
				t.Errorf("%s trace=%v: printed metrics\n%v\nBENCHMARK.json declares\n%v",
					w.name, traced, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

// TestWrongReferenceFailsEveryCheck plants a wrong reference cost in every
// workload: every output must then fail its check, an error_rate of 1.
func TestWrongReferenceFailsEveryCheck(t *testing.T) {
	for _, w := range workloads {
		res := runQuick(t, config{workload: w.name, seed: 5, seconds: 0.2, quick: true, skewReference: true})
		if res.Correct || res.Attempted == 0 || errorRate(res) != 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every check failed",
				w.name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestSameSeedSameInputs checks that the generators depend on the seed
// alone, and that another seed changes the inputs.
func TestSameSeedSameInputs(t *testing.T) {
	a, _, err := exactBatch(7, true, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := exactBatch(7, true, true)
	c, _, _ := exactBatch(8, true, true)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("batch sizes %d and %d", len(a), len(b))
	}
	same := func(x, y []exactItem) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].m.String() != y[i].m.String() {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("seed 7 gave two different batches")
	}
	if same(a, c) {
		t.Error("seeds 7 and 8 gave the same batch")
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
