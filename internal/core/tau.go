package core

import (
	"math"
	"sort"
)

// DefaultTauSelector implements the largest-gap heuristic used in place
// of the interactive decision-graph step (Sec. 5): density peaks stand
// out on the decision graph because their dependent distance δ is
// anomalously large, so the threshold is placed inside the widest
// relative gap of the sorted finite δ values. Cells whose density is in
// the lowest quartile are ignored (they are outlier candidates whose δ
// says nothing about cluster separation, mirroring footnote 5).
func DefaultTauSelector(graph []DecisionPoint) float64 {
	var rhos []float64
	for _, dp := range graph {
		rhos = append(rhos, dp.Rho)
	}
	if len(rhos) == 0 {
		return 0
	}
	sort.Float64s(rhos)
	rhoCut := rhos[len(rhos)/4]

	var deltas []float64
	for _, dp := range graph {
		if dp.Rho < rhoCut {
			continue
		}
		if math.IsInf(dp.Delta, 1) || math.IsNaN(dp.Delta) || dp.Delta <= 0 {
			continue
		}
		deltas = append(deltas, dp.Delta)
	}
	if len(deltas) == 0 {
		return 0
	}
	sort.Float64s(deltas)
	if len(deltas) == 1 {
		return deltas[0]
	}
	// Find the widest gap between consecutive sorted δ values and put τ
	// in its middle. A gap above the largest δ cannot exist, so peaks
	// (large δ) end up above τ and ordinary cells below.
	bestGap, bestTau := -1.0, deltas[len(deltas)-1]
	for i := 1; i < len(deltas); i++ {
		gap := deltas[i] - deltas[i-1]
		if gap > bestGap {
			bestGap = gap
			bestTau = (deltas[i] + deltas[i-1]) / 2
		}
	}
	return bestTau
}

// tauTuner implements the adaptive τ strategy of Sec. 5: it learns the
// balance parameter α from the initial τ⁰ (which encodes the user's
// granularity preference) and afterwards re-optimizes τ_t to minimize
// the objective F of Eq. 15 whenever the clustering is refreshed.
type tauTuner struct {
	alpha float64
	tau   float64
}

// objective evaluates the cluster-separation objective of Sec. 5 for a
// candidate τ over the finite dependent distances deltas:
//
//	F(τ) = α·(n·δ̄)/(Σ_{δ>τ} δ) + (1−α)·(Σ_{δ≤τ} δ)/(m·δ̄)
//	     = α·(δ̄ / δ̄_inter)     + (1−α)·(δ̄_intra / δ̄)
//
// where m = |{δ ≤ τ}|, n = |{δ > τ}| and δ̄ is the mean of all δ.
// Minimizing F therefore maximizes the average relative
// inter-dependent-distance and minimizes the average relative
// intra-dependent-distance, which is exactly the goal Sec. 5 states.
// (The paper's Eq. 15 prints the two ratios the other way up, which
// contradicts that stated goal and degenerates to "always pick the
// largest τ"; we implement the consistent form, and this comment is
// the record of the deviation.) Degenerate splits with no intra or no inter distances
// evaluate to +Inf so they are never selected.
func tauObjective(alpha, tau float64, deltas []float64) float64 {
	if len(deltas) == 0 {
		return math.Inf(1)
	}
	var sumAll, sumIntra, sumInter float64
	var m, n int
	for _, d := range deltas {
		sumAll += d
		if d <= tau {
			sumIntra += d
			m++
		} else {
			sumInter += d
			n++
		}
	}
	if m == 0 || n == 0 || sumInter == 0 {
		return math.Inf(1)
	}
	mean := sumAll / float64(len(deltas))
	if mean == 0 {
		return math.Inf(1)
	}
	return alpha*float64(n)*mean/sumInter + (1-alpha)*sumIntra/(float64(m)*mean)
}

// candidateTaus returns the candidate thresholds considered when
// minimizing F: the midpoints between consecutive distinct sorted δ
// values (cutting anywhere else is equivalent to cutting at one of
// these).
func candidateTaus(deltas []float64) []float64 {
	if len(deltas) < 2 {
		return append([]float64(nil), deltas...)
	}
	sorted := append([]float64(nil), deltas...)
	sort.Float64s(sorted)
	var out []float64
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1] {
			out = append(out, (sorted[i]+sorted[i-1])/2)
		}
	}
	if len(out) == 0 {
		out = append(out, sorted[0])
	}
	return out
}

// fitAlpha finds the balance parameter α under which the user's initial
// choice τ⁰ is (as nearly as possible) the minimizer of F, per Sec. 5.
// It scans a grid of α values and picks the one whose optimal τ is
// closest to τ⁰.
func fitAlpha(tau0 float64, deltas []float64) float64 {
	if len(deltas) == 0 || tau0 <= 0 {
		return 0.5
	}
	cands := candidateTaus(deltas)
	bestAlpha, bestDiff := 0.5, math.Inf(1)
	for a := 0.02; a < 1.0; a += 0.02 {
		tauOpt, ok := minimizeTau(a, cands, deltas)
		if !ok {
			continue
		}
		diff := math.Abs(tauOpt - tau0)
		if diff < bestDiff {
			bestDiff = diff
			bestAlpha = a
		}
	}
	return bestAlpha
}

// minimizeTau returns the candidate τ minimizing F(α, ·). ok is false
// when every candidate is degenerate.
func minimizeTau(alpha float64, candidates, deltas []float64) (float64, bool) {
	bestTau, bestF := 0.0, math.Inf(1)
	for _, tau := range candidates {
		f := tauObjective(alpha, tau, deltas)
		if f < bestF {
			bestF = f
			bestTau = tau
		}
	}
	return bestTau, !math.IsInf(bestF, 1)
}

// initialize fixes α from the initial τ⁰ and the initial finite δ
// values (Sec. 5). When alphaOverride > 0 the override is used instead
// of fitting.
func (t *tauTuner) initialize(tau0, alphaOverride float64, deltas []float64) {
	t.tau = tau0
	if alphaOverride > 0 {
		t.alpha = alphaOverride
		return
	}
	t.alpha = fitAlpha(tau0, deltas)
}

// retune recomputes the optimal τ_t for the current δ distribution. It
// keeps the previous τ when the distribution is degenerate.
func (t *tauTuner) retune(deltas []float64) float64 {
	finite := deltas[:0:0]
	for _, d := range deltas {
		if !math.IsInf(d, 1) && !math.IsNaN(d) && d > 0 {
			finite = append(finite, d)
		}
	}
	if len(finite) < 2 {
		return t.tau
	}
	tau, ok := minimizeTau(t.alpha, candidateTaus(finite), finite)
	if ok {
		t.tau = tau
	}
	return t.tau
}
