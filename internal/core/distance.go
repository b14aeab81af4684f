package core

import (
	"errors"
	"fmt"
	"math"

	"stsmatch/internal/plr"
)

// This file implements Definition 2: the model-based, multi-layer,
// weighted, parametric subsequence distance. See DESIGN.md §3 for the
// reconstruction of the garbled display equation; the properties kept
// from the prose are:
//
//   - condition 1: identical state order (the "meaning" of the
//     subsequence — an inhale is never compared with an exhale);
//   - offset-translation insensitivity (distances are computed on
//     per-segment displacement vectors, not absolute positions);
//   - separate amplitude (w_a) and frequency (w_f) weights;
//   - per-vertex recency weights w_i for online matching;
//   - a source-stream weight w_s making candidates from less trusted
//     streams proportionally harder to accept;
//   - normalization by the total vertex weight so the threshold
//     epsilon is comparable across (dynamic) query lengths.

// Errors returned by the distance functions.
var (
	ErrLengthMismatch = errors.New("core: subsequences have different lengths")
	ErrStateMismatch  = errors.New("core: subsequences have different state orders")
	ErrTooShort       = errors.New("core: subsequence needs at least two vertices")
	ErrDimsMismatch   = errors.New("core: subsequences have different dimensionality")
)

// Distance computes the online weighted subsequence distance between a
// query q and candidate c of equal vertex count, with the candidate
// sourced at the given relation. It returns ErrStateMismatch when
// condition 1 fails (unless the state-order requirement is ablated
// off).
func (p Params) Distance(q, c plr.Sequence, rel SourceRelation) (float64, error) {
	d, _, err := p.distanceBounded(q, c, rel, 0)
	return d, err
}

// OfflineDistance is the Section 5 variant: all vertex weights are 1
// (there is no "current time" offline), while amplitude/frequency and
// source-stream weights remain in force.
func (p Params) OfflineDistance(q, c plr.Sequence, rel SourceRelation) (float64, error) {
	offline := p
	offline.UseVertexWeights = false
	return offline.Distance(q, c, rel)
}

// distanceBounded validates one (query, candidate) pair the way the
// exported API promises, copies the candidate into columns and scores it
// with weightedDistance. The retrieval funnel does not come through
// here: its driver owns these checks and hands the kernel precomputed
// weights and the store's own columns (queryPlan.run).
func (p Params) distanceBounded(q, c plr.Sequence, rel SourceRelation, bound float64) (d float64, ok bool, err error) {
	if len(q) != len(c) {
		return 0, false, fmt.Errorf("%w: %d vs %d vertices", ErrLengthMismatch, len(q), len(c))
	}
	if len(q) < 2 {
		return 0, false, ErrTooShort
	}
	if p.RequireStateOrder && !statesEqual(q, c) {
		return 0, false, ErrStateMismatch
	}
	// Weights, query segments and candidate columns of the usual query
	// (up to 12 vertices of up to 3 coordinates) fit on the stack.
	var stack [128]float64
	buf := stack[:]
	n, dims := len(q), q.Dims()
	segs := (n - 1) * (dims + 2)
	if need := segs + n*(dims+1); need > len(buf) {
		buf = make([]float64, need)
	}
	vw := p.VertexWeights(buf[:0], n)
	wsum, _ := sumMin(vw)
	wa, wf := p.ampFreqWeights()
	qseg := querySegments(buf[n-1:segs], q)
	ts, pos := buf[segs:segs+n], buf[segs+n:segs+n]
	for i, v := range c {
		if len(v.Pos) != dims {
			return 0, false, fmt.Errorf("%w: query has %d, candidate vertex %d has %d", ErrDimsMismatch, dims, i, len(v.Pos))
		}
		ts[i], pos = v.T, append(pos, v.Pos...)
	}
	d, ok = weightedDistance(qseg, ts, pos, vw, wa, wf, p.StreamWeight(rel), wsum, bound)
	return d, ok, nil
}

// querySegments fills dst with the query side of the distance kernel,
// one record per segment: its duration, then its displacement vector.
// dst must hold (len(q)-1)*(q.Dims()+1) values.
func querySegments(dst []float64, q plr.Sequence) []float64 {
	dst = dst[:0]
	for i := 0; i+1 < len(q); i++ {
		dst = append(dst, q[i+1].T-q[i].T)
		for k := range q[0].Pos {
			dst = append(dst, q[i+1].Pos[k]-q[i].Pos[k])
		}
	}
	return dst
}

// weightedDistance is the Definition-2 arithmetic: the vertex-weighted
// sum of per-segment amplitude and duration differences between the
// query (qseg, its querySegments) and an equal-length window given as
// columns (its len(vw)+1 vertex times ts and their positions pos, the
// query's dimensionality per vertex), normalized by ws·wsum (wsum = Σ
// vw). Each candidate value is loaded once. It supports early
// abandonment: when bound > 0 and the partial
// weighted sum already guarantees the final distance exceeds bound, the
// computation stops and ok is false. The retrieval loop passes its
// acceptance bound here, which skips most of the arithmetic on
// clearly-distant candidates (every term of the sum is non-negative,
// so the partial normalized sum only grows).
func weightedDistance(qseg, ts, pos, vw []float64, wa, wf, ws, wsum, bound float64) (d float64, ok bool) {
	// Early abandonment threshold on the raw (unnormalized) sum. The
	// tiny relative slack makes abandonment conservative under
	// floating-point rounding: a candidate whose final distance ties
	// the bound exactly is always computed in full, which the adaptive
	// top-k search needs so that equal-distance candidates at the k-th
	// boundary reach the deterministic tie-break instead of being
	// dropped by a round-trip (d*c)/c != d artifact.
	abandonAt := math.Inf(1)
	if bound > 0 {
		abandonAt = bound * ws * wsum * (1 + boundSlack)
	}

	var sum float64
	stride := len(qseg) / len(vw) // 1 + dims
	if stride == 2 {
		// One coordinate, as in the paper's SI-axis traces: the norm of
		// Definition 2 is an absolute value. In radix 2
		// sqrt(RN(d*d)) = |d| unless d*d overflows or underflows (Boldo
		// 2015), so inside the guard this body is bit-equal to the general
		// one, term by term in the same order, with no square root.
		prevT, prevP := ts[0], pos[0]
		for i, w := range vw {
			curT, curP := ts[i+1], pos[i+1]
			d := qseg[2*i+1] - (curP - prevP)
			ampDiff := math.Abs(d)
			if !(ampDiff >= absExactMin && ampDiff < absExactMax) {
				ampDiff = math.Sqrt(d * d)
			}
			durDiff := math.Abs(qseg[2*i] - (curT - prevT))
			sum += w * (wa*ampDiff + wf*durDiff)
			if sum > abandonAt {
				return sum / (ws * wsum), false
			}
			prevT, prevP = curT, curP
		}
		return sum / (ws * wsum), true
	}
	dims, off, prevT := stride-1, 0, ts[0]
	for i, w := range vw {
		seg, curT := qseg[i*stride:(i+1)*stride], ts[i+1]
		prevPos, curPos := pos[off:off+dims], pos[off+dims:off+2*dims]
		// Segment displacement difference (amplitude term).
		var dd float64
		for k, dq := range seg[1:] {
			d := dq - (curPos[k] - prevPos[k])
			dd += d * d
		}
		ampDiff := math.Sqrt(dd)
		durDiff := math.Abs(seg[0] - (curT - prevT))
		sum += w * (wa*ampDiff + wf*durDiff)
		if sum > abandonAt {
			return sum / (ws * wsum), false
		}
		prevT, off = curT, off+dims
	}
	return sum / (ws * wsum), true
}

// The 1-D body's guard: 2^-511 <= |d| < 2^511 keeps d*d a normal number.
const absExactMin, absExactMax = 0x1p-511, 0x1p511

// boundSlack is the relative float safety margin of the pruning
// layers: abandonment triggers only when the partial sum exceeds the
// bound by more than this fraction, and the O(1) lower bound is
// deflated by the same fraction of its input magnitude. Rounding
// errors in the distance pipeline are O(n * 2^-53) relative — many
// orders of magnitude below 1e-9 for any realistic window — so the
// slack guarantees admissibility of both layers in computed (not just
// exact) arithmetic while giving up no meaningful pruning power.
const boundSlack = 1e-9

// lowerBound returns a constant-time admissible lower bound on the
// Definition-2 weighted distance between the plan's query and a
// candidate window at the given relation, from aggregate quantities
// alone:
//
//	ampQ, ampC — sums of per-segment displacement norms Σ|Δ_i|
//	durQ, durC — total durations (last vertex time - first)
//	vwMin      — the smallest per-segment vertex weight
//	wsum       — the total vertex weight Σ w_i
//
// Derivation: each amplitude term satisfies the reverse triangle
// inequality |Δq_i - Δc_i| >= ||Δq_i| - |Δc_i||, and summing,
// Σ||Δq_i|-|Δc_i|| >= |Σ(|Δq_i|-|Δc_i|)| = |ampQ - ampC|; likewise
// Σ|dq_i - dc_i| >= |durQ - durC|. Bounding every vertex weight below
// by vwMin,
//
//	D * ws * wsum >= vwMin * (wa*|ampQ-ampC| + wf*|durQ-durC|)
//
// The candidate-side sums come from store.Stream prefix sums in O(1),
// so candidates can be rejected before any per-segment arithmetic; the
// query side and every weight are constants of the plan.
func (pl *queryPlan) lowerBound(ampC, durC float64, rel SourceRelation) float64 {
	gap := pl.wa*math.Abs(pl.ampQ-ampC) + pl.wf*math.Abs(pl.durQ-durC)
	// Deflate by a slack proportional to the input magnitude (not the
	// gap): rounding error in the prefix sums and in the exact
	// distance scales with the magnitudes, so a near-zero gap between
	// large sums must not produce a spuriously positive bound.
	gap -= boundSlack * (pl.wa*(pl.ampQ+ampC) + pl.wf*(pl.durQ+durC))
	if gap <= 0 || pl.wsum <= 0 {
		return 0
	}
	return pl.vwMin * gap / (pl.ws[rel] * pl.wsum)
}

// stageAGuard is the extra relative deflation of the amplitude-first
// bound, on its slack and again on its scale: a thousand times the
// rounding error of either formula, a thousandth of boundSlack's own
// margin. A variable so that a test can set it to 1, which makes stage A
// vacuous (every candidate takes the full bound, as before the split).
var stageAGuard = 1e-3

// ampBound holds the constants of lowerBoundAmp for candidates at one
// relation; a funnel run computes them once, so no candidate pays the
// division.
type ampBound struct{ slack, floor, scale float64 }

func (pl *queryPlan) ampBound(rel SourceRelation) ampBound {
	a := ampBound{slack: boundSlack * (1 + stageAGuard)}
	a.floor = 2 * a.slack * pl.wf * pl.durQ
	if pl.wsum > 0 {
		a.scale = (1 - stageAGuard) * pl.vwMin / (pl.ws[rel] * pl.wsum)
	}
	return a
}

// lowerBoundAmp is lowerBound without the candidate's duration: stage A
// of the funnel's pass 2, computable from the prefix-sum column alone.
// The duration term of the deflated gap, wf*(|durQ-durC| -
// boundSlack*(durQ+durC)), falls with slope -(1+boundSlack) up to durC =
// durQ and rises with slope 1-boundSlack after it, so over every durC >=
// 0 it is at least its value there, -2*boundSlack*wf*durQ (a.floor).
// Substituting that minimum leaves a bound that never exceeds the full
// one in exact arithmetic; stageAGuard widens the slack and shrinks the
// scale vwMin/(ws[rel]*wsum) far enough that the computed values are
// ordered the same way, so stage A prunes only what lowerBound would. A
// gap that is not positive gives a bound that is not, which is above no
// acceptance bound.
func (pl *queryPlan) lowerBoundAmp(a ampBound, ampC float64) float64 {
	return (pl.wa*(math.Abs(pl.ampQ-ampC)-a.slack*(pl.ampQ+ampC)) - a.floor) * a.scale
}
