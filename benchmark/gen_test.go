package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestGenIsDeterministicInItsSeed(t *testing.T) {
	for _, w := range workloads {
		a := newGen(w.lattice, 42).points(2000)
		b := newGen(w.lattice, 42).points(2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different points", w.name)
		}
		c := newGen(w.lattice, 43).points(2000)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same points", w.name)
		}
	}
}

// The reference engine is fed the generator's points while the daemon
// decodes the rendered body, so the body must print every value exactly.
func TestIngestBodyRoundTripsExactly(t *testing.T) {
	pts := newGen(workloads[2].lattice, 7).points(500)
	var wire []struct {
		Vector []float64 `json:"vector"`
		Time   float64   `json:"time"`
	}
	if err := json.Unmarshal(ingestBody(pts), &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(pts) {
		t.Fatalf("%d points decoded, want %d", len(wire), len(pts))
	}
	for i := range pts {
		if !reflect.DeepEqual(wire[i].Vector, pts[i].Vector) || wire[i].Time != pts[i].Time {
			t.Fatalf("point %d: decoded %v @%v, generated %v @%v", i, wire[i].Vector, wire[i].Time, pts[i].Vector, pts[i].Time)
		}
	}
}

func TestDriftMovesTheMountains(t *testing.T) {
	l := workloads[2].lattice
	g := newGen(l, 7)
	before := append([]float64(nil), g.w...)
	g.at(l.Drift / 4)
	if reflect.DeepEqual(before, g.w) {
		t.Error("drifting lattice kept its weights a quarter cycle later")
	}
	still := newGen(stationary, 7)
	w0 := append([]float64(nil), still.w...)
	still.points(100000) // two stream-seconds
	if !reflect.DeepEqual(w0, still.w) {
		t.Error("stationary lattice changed its weights")
	}
}

func TestPlanShape(t *testing.T) {
	for _, w := range workloads {
		p := buildPlan(w, 1, 4)
		if len(p.warmup) != warmupPoints/batchPoints {
			t.Errorf("%s: %d warm-up requests", w.name, len(p.warmup))
		}
		if w.durable != (len(p.prefill) > 0) {
			t.Errorf("%s: prefill %d requests, durable %v", w.name, len(p.prefill), w.durable)
		}
		ingest := 0
		for _, ops := range p.ref {
			for _, o := range ops {
				if o.ep == epIngest {
					ingest += o.points
				}
			}
		}
		if want := w.ingestPPS * p.refDur.Seconds(); float64(ingest) < want-batchPoints || float64(ingest) > want+batchPoints {
			t.Errorf("%s: %d reference points, want about %.0f", w.name, ingest, want)
		}
		for s := range p.reference {
			if len(p.reference[s]) == 0 {
				t.Errorf("%s: stream %d has no set-up points", w.name, s)
			}
		}
	}
}
