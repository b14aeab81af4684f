package core

import (
	"math"

	"stsmatch/internal/plr"
	"stsmatch/internal/stats"
)

// This file implements Definition 1 (subsequence stability) and the
// Section 4.1 dynamic query generation scheme built on it.
//
// Stability measures how self-consistent a subsequence's per-state
// segment durations and amplitudes are. Per DESIGN.md §3, we use
// absolute deviations from the per-state means, weighted by the
// amplitude and frequency weights:
//
//	sigma(S) = sum over states k, segments i in state k of
//	           w_a*|A_i - meanA_k| + w_f*|T_i - meanT_k|
//
// Deviations carry the data's physical units (mm for amplitude,
// seconds for duration), exactly like the Definition 2 distance, so
// the Table 1 thresholds (theta = 6.0, eps = 8.0) live on one scale.
// The smaller sigma is, the more stable S is; S is stable when
// sigma(S) <= StabilityThreshold.

// Stability computes sigma(S) for the subsequence. Sequences with
// fewer than two segments are maximally stable (0): there is nothing to
// deviate from.
func (p Params) Stability(s plr.Sequence) float64 {
	n := s.NumSegments()
	if n < 2 {
		return 0
	}
	wa, wf := p.ampFreqWeights()

	// Two passes straight over the vertices — per-state means, then the
	// deviations from them — and no segment list: the dynamic query calls
	// this once per strip position on every prediction.
	var amp, dur [plr.NumStates]stats.Welford
	for i := 0; i < n; i++ {
		k := s[i].State
		amp[k].Add(plr.Dist(s[i+1].Pos, s[i].Pos))
		dur[k].Add(s[i+1].T - s[i].T)
	}

	var sigma float64
	for i := 0; i < n; i++ {
		k := s[i].State
		da := math.Abs(plr.Dist(s[i+1].Pos, s[i].Pos) - amp[k].Mean())
		dt := math.Abs(s[i+1].T - s[i].T - dur[k].Mean())
		sigma += wa*da + wf*dt
	}
	return sigma
}

// Stable reports whether the subsequence is stable under the configured
// threshold.
func (p Params) Stable(s plr.Sequence) bool {
	return p.Stability(s) <= p.StabilityThreshold
}

// QueryInfo describes how a dynamic query subsequence was chosen.
type QueryInfo struct {
	// Start is the index into the source sequence where the query
	// begins; the query always ends at the final vertex.
	Start int
	// Stable reports whether the stability strip halted on a stable
	// window (versus hitting the maximum length).
	Stable bool
	// StripStability is sigma of the final strip position.
	StripStability float64
}

// DynamicQuery selects the query subsequence from the most recent part
// of seq per Section 4.1: a stability checking strip of the minimum
// query length starts over the most recent vertices and moves one
// vertex back into history until it covers a stable window or the
// query reaches the maximum length. The query runs from the beginning
// of the final strip position to the most recent vertex, so unstable
// (low-regularity) breathing yields longer queries and highly regular
// breathing yields short ones.
//
// The returned sequence shares seq's backing array. When seq is
// shorter than the minimum query length, the whole sequence is
// returned.
func (p Params) DynamicQuery(seq plr.Sequence) (plr.Sequence, QueryInfo) {
	minV := p.MinQueryVertices()
	maxV := p.MaxQueryVertices()
	n := len(seq)
	if n <= minV {
		sigma := p.Stability(seq)
		stable := sigma <= p.StabilityThreshold
		countStability(stable)
		return seq, QueryInfo{Start: 0, Stable: stable, StripStability: sigma}
	}

	stripLen := minV
	// Earliest allowed strip start so that the query (strip start ->
	// end of sequence) does not exceed maxV vertices.
	minStart := n - maxV
	if minStart < 0 {
		minStart = 0
	}

	start := n - stripLen
	var sigma float64
	for {
		sigma = p.Stability(seq[start : start+stripLen])
		if sigma <= p.StabilityThreshold || start <= minStart {
			break
		}
		start--
	}
	stable := sigma <= p.StabilityThreshold
	countStability(stable)
	return seq[start:], QueryInfo{
		Start:          start,
		Stable:         stable,
		StripStability: sigma,
	}
}

// countStability feeds the stable/unstable dynamic-query counters.
func countStability(stable bool) {
	if stable {
		mStableQueries.Inc()
	} else {
		mUnstableQueries.Inc()
	}
}

// FixedQuery returns the most recent window of exactly the given number
// of breathing cycles (the baseline strategy Figure 7a compares
// against). When the sequence is shorter, the whole sequence is
// returned.
func FixedQuery(seq plr.Sequence, cycles int) plr.Sequence {
	v := 3*cycles + 1
	if len(seq) <= v {
		return seq
	}
	return seq[len(seq)-v:]
}
