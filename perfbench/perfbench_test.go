package main

// The benchmark's smoke test: every workload at a tiny budget, untraced
// and traced, must pass its checks and emit exactly the metrics
// BENCHMARK.json names, with their units.
//
//	cd perfbench && go test .

import (
	"encoding/json"
	"os"
	"testing"
)

type contract struct {
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

func TestMain(m *testing.M) {
	// The benchmark runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, cw := range c.Workloads {
		w := &workloads[i]
		if cw.Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, cw.Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			b := &bench{workload: w.name, seed: 3, seconds: 0.01, trace: trace, scale: 0.02,
				work: t.TempDir(), traceOut: t.TempDir(), maxTrace: 2, minRound: 2}
			res, _, err := measure(b, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			if trace {
				if s := res.Metrics["trace.span_share"].Value; s < 0.95 {
					t.Errorf("%s: trace.span_share %.3f < 0.95", w.name, s)
				}
			} else {
				for _, name := range []string{"setup_s", "ops_per_s", "alloc_bytes_per_op", "peak_rss_mb", "ok_share"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}
