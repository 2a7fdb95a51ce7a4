package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs each workload for about a second against
// a freshly built daemon, with every correctness gate on.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons; skipped under -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Skip(err)
	}
	begin := time.Now()
	for _, w := range workloads {
		cfg := &runConfig{w: w, seed: 1, seconds: 1, setups: 1}
		m, err := runOnce(root, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if _, err := resultLine(endToEnd, m.values, m.attempted, m.failed); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if m.failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, m.failed, m.attempted)
		}
	}
	t.Logf("all workloads in %v", time.Since(begin).Round(time.Millisecond))
}

// BENCHMARK.json must list exactly the workloads and metrics this
// program measures, with bounds inside the allowed range and set-up time
// given the largest.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Skip(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		Layer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, code has %q (%q)", i, bj.Workloads[i].Name, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d in the code", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: listed %+v, code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(bj.Layer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d in the code", len(bj.Layer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bj.Layer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: listed %+v, code has %+v", i, m, d)
		}
	}
}
