package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units (or lists one in the header as a flagged ratio instead),
// and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := profiles[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: w.Name, seed: 7, seconds: 2, trace: traced, scale: 0.02, out: t.TempDir()}
			rec, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			r := rec.Result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, r.Correct, r.Attempted, r.Failed, rec.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d: %v", w.Name, traced, len(r.Metrics), len(want), metricNames(r.Metrics))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !strings.HasPrefix(out.String(), `{"header":`) {
				t.Errorf("%s traced=%v: output does not start with the header", w.Name, traced)
			}
			if traced && strings.Count(out.String(), `{"attribution":`) < len(spec.EndToEnd) {
				t.Errorf("%s: fewer attribution lines than end-to-end metrics", w.Name)
			}
		}
	}
}

// metricNames lists a map's keys in order, for failure messages.
func metricNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
