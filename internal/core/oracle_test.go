package core

import (
	"fmt"
	"math"
)

// checkNearestDependencies is a brute-force oracle for the DP-Tree's
// dependency links (Eq. 7) that shares no code with their maintenance.
// For every active cell it scans every other active cell, keeps those
// that outrank it — strictly higher density at the engine's clock, the
// lower cell ID on an exact tie — and requires the cell's dependency to
// be the nearest of them at a δ equal bit for bit to that seed
// distance, the lowest ID among equally near candidates. A cell nothing
// outranks at a finite distance must be a root with δ = +Inf.
//
// The engine applies the lowest-ID rule both when it searches a
// dependency from scratch and when a cell that rose in rank takes over
// a dependency (relinkToward), so the oracle is strict on every
// stream. Exact distance ties need equal Jaccard ratios or equal
// coordinate offsets: common on token-set streams, rare on numeric
// ones.
func checkNearestDependencies(e *EDMStream) error {
	now, decay := e.now, e.cfg.Decay
	active := e.tree.list
	outranks := func(o, c *Cell) bool {
		ro, rc := decay.Scale(o.rho, now, o.rhoTime), decay.Scale(c.rho, now, c.rhoTime)
		return ro > rc || ro == rc && o.id < c.id
	}
	for _, c := range active {
		var want *Cell
		wantDist := math.Inf(1)
		for _, o := range active {
			if o == c || !outranks(o, c) {
				continue
			}
			d := c.seed.Distance(o.seed)
			if d < wantDist || d == wantDist && want != nil && o.id < want.id {
				want, wantDist = o, d
			}
		}
		got, wantID := int64(-1), int64(-1)
		if c.dep != nil {
			got = c.dep.id
		}
		if want != nil {
			wantID = want.id
		}
		if got != wantID || math.Float64bits(c.delta) != math.Float64bits(wantDist) {
			return fmt.Errorf("cell %d depends on %d at δ %v; its nearest higher-ranked cell is %d at %v",
				c.id, got, c.delta, wantID, wantDist)
		}
	}
	return nil
}

// oracleEvery is how many points apart the equivalence suites run
// checkNearestDependencies.
const oracleEvery = 100

// checkOracleAt runs checkNearestDependencies when a batch ending at
// point index end (exclusive) crossed a multiple of oracleEvery since
// start.
func checkOracleAt(e *EDMStream, start, end int) error {
	if start/oracleEvery == end/oracleEvery {
		return nil
	}
	return checkNearestDependencies(e)
}
