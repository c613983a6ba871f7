package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func quick() Config {
	return Config{Seed: 3, Seconds: 300 * time.Millisecond, Quick: true}
}

// checkMetrics asserts that res carries exactly defs, each finite and
// with its unit, and that nothing failed.
func checkMetrics(t *testing.T, what string, res Result, defs []metricDef) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", what, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, d.name, m.Value)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := quick()
			refs, err := w.refs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "run", w.run(cfg, refs), endToEnd)
			checkMetrics(t, "trace", w.trace(cfg, refs), perLayer)
		})
	}
}

func TestWrongReferenceCountsAsFailed(t *testing.T) {
	for _, w := range []workload{pagerankTCP, jobsMix} {
		t.Run(w.name, func(t *testing.T) {
			cfg := quick()
			refs, err := w.refs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := refs["pagerank"]
			r.Hash ^= 1
			refs["pagerank"] = r
			res := w.run(cfg, refs)
			if res.Failed == 0 {
				t.Fatalf("a wrong pagerank reference hash failed no op (attempted %d)", res.Attempted)
			}
		})
	}
}

func TestWrongTriangleCountFails(t *testing.T) {
	refs := Refs{"triangle": {Hash: 1, Rounds: 2, Triangles: 3}}
	if err := refs.check("triangle", 1, 2, []string{"triangle: 4 triangles (checksum 0)"}); err == nil {
		t.Fatal("a triangle count differing from graph.CountTriangles passed the check")
	}
	if err := refs.check("triangle", 1, 2, []string{"triangle: 3 triangles (checksum 0)"}); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
