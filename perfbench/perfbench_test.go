package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tiny runs a workload at a small size with every check on.
func tiny(t *testing.T, workload string, trace bool, skew int) *report {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.05, dir: t.TempDir(), skew: skew}
	rep, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := tiny(t, name, false, 0)
			if rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("attempted %d, failed %d (first: %s)", rep.attempted, rep.failed, rep.first)
			}
			for m := range endToEndUnits {
				if v, ok := rep.metrics[m]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, %v; want a positive value", m, v, ok)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := tiny(t, name, true, 0)
			if rep.failed != 0 {
				t.Fatalf("failed %d (first: %s)", rep.failed, rep.first)
			}
			for m := range perLayerUnits {
				if _, ok := rep.metrics[m]; !ok {
					t.Errorf("per-layer metric %s not measured", m)
				}
			}
		})
	}
}

// A wrong expected count must surface as failures, never as a clean run.
func TestWrongExpectationIsCaught(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := tiny(t, name, false, 1)
			if rep.failed == 0 || rep.mismatched == 0 {
				t.Fatalf("attempted %d, failed %d, mismatched %d: the skewed expectation went unnoticed", rep.attempted, rep.failed, rep.mismatched)
			}
			if got := rep.metrics["ok_ratio"]; got >= 1 {
				t.Fatalf("ok_ratio %v with %d failures", got, rep.failed)
			}
			if line := result(config{}, rep); line.Correct {
				t.Fatal("result reports correct despite mismatches")
			}
		})
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 6}}, 4},
		{0, 10, [][2]int64{{8, 12}, {-2, 1}}, 3},
		{0, 10, [][2]int64{{1, 2}, {4, 5}}, 2},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The program prints exactly the metrics BENCHMARK.json declares, with
// the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		units    map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(c.declared) != len(c.units) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program prints %d", len(c.declared), len(c.units))
		}
		for _, m := range c.declared {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q (printed: %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}
