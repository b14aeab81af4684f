// Package core implements the paper's primary contribution: the
// model-based, multi-layer, weighted, parametric subsequence similarity
// measure (Definition 2), the subsequence stability concept and
// stability-driven dynamic query generation (Definition 1, Section
// 4.1), online similarity search over the hierarchical stream database,
// and online motion prediction (Section 4.3).
package core

import (
	"fmt"
	"runtime"

	"stsmatch/internal/plr"
)

// Params collects every tunable of the similarity measure. Defaults
// reproduce Table 1 of the paper.
type Params struct {
	// WeightAmp (w_a) and WeightFreq (w_f) trade off amplitude
	// against frequency differences; the paper keeps w_a >= w_f
	// "to ensure that the amplitude has more significance than the
	// frequency".
	WeightAmp  float64
	WeightFreq float64

	// VertexWeightBase (w_0) anchors the linear recency ramp of the
	// per-vertex weights: w_i runs from w_0 at the oldest vertex to 1
	// at the most recent.
	VertexWeightBase float64

	// Source-stream weights (w_s): subsequences from the same session
	// are the most valuable, then other sessions of the same patient,
	// then other patients.
	WeightSameSession  float64
	WeightSamePatient  float64
	WeightOtherPatient float64

	// DistThreshold (epsilon) is the acceptance threshold on the
	// weighted distance.
	DistThreshold float64

	// StabilityThreshold (theta) bounds the stability value sigma(S)
	// below which a subsequence is considered stable (Definition 1).
	StabilityThreshold float64

	// Dynamic query generation bounds, in breathing cycles
	// (Section 4.1: lambda_min = 3, lambda_max = 8).
	MinQueryCycles int
	MaxQueryCycles int

	// Ablation switches for the Figure 6 experiment. When false, the
	// corresponding weight layer collapses to 1 ("no weighting").
	UseAmpFreqWeights bool
	UseStreamWeights  bool
	UseVertexWeights  bool

	// RequireStateOrder controls condition 1 of Definition 2 (same
	// state order). Always true in the paper; exposed for the
	// ablation that shows why the model layer matters.
	RequireStateOrder bool

	// UseIndex is library-only — no daemon sets it and a served shard
	// always scans; bench/ and the equivalence tests drive it. It routes
	// candidate generation through the matcher's window-signature
	// index (Matcher.Index) when one is attached:
	// envelope probes with iterative widening replace the per-stream
	// posting scans. Results are byte-identical to the scan path;
	// streams the index does not fully cover fall back to scanning.
	// Ignored when RequireStateOrder is false — the ablation needs
	// every window, which the index cannot enumerate — or when the
	// query length falls outside the indexed window range.
	UseIndex bool

	// Parallelism is the number of worker goroutines a similarity
	// search fans its candidate streams across. 0 (the default) uses
	// GOMAXPROCS; 1 forces the sequential scan. Results are identical
	// at every setting: partial results merge into one deterministic
	// total order (see DESIGN.md on the retrieval funnel).
	Parallelism int

	// AnchorAtQueryEnd selects the prediction anchor. The paper's
	// Section 4.3 formula anchors each match's future displacement at
	// the *first* vertex of the subsequences; anchoring at the *last*
	// vertex (the current, observed position) makes the prediction
	// exact at delta = 0 and reproduces the error-grows-with-horizon
	// shape of Figure 6a. Both are available; see DESIGN.md.
	AnchorAtQueryEnd bool
}

// DefaultParams returns the Table 1 parameter settings.
func DefaultParams() Params {
	return Params{
		WeightAmp:          1.0,
		WeightFreq:         0.25,
		VertexWeightBase:   0.8,
		WeightSameSession:  1.0,
		WeightSamePatient:  0.9,
		WeightOtherPatient: 0.3,
		DistThreshold:      8.0,
		StabilityThreshold: 6.0,
		MinQueryCycles:     3,
		MaxQueryCycles:     8,
		UseAmpFreqWeights:  true,
		UseStreamWeights:   true,
		UseVertexWeights:   true,
		RequireStateOrder:  true,
		AnchorAtQueryEnd:   true,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.WeightAmp <= 0 || p.WeightFreq <= 0 {
		return fmt.Errorf("core: WeightAmp and WeightFreq must be positive")
	}
	if p.WeightAmp < p.WeightFreq {
		return fmt.Errorf("core: WeightAmp (%v) must be >= WeightFreq (%v)", p.WeightAmp, p.WeightFreq)
	}
	if p.VertexWeightBase <= 0 || p.VertexWeightBase > 1 {
		return fmt.Errorf("core: VertexWeightBase must be in (0,1], got %v", p.VertexWeightBase)
	}
	if p.WeightSameSession <= 0 || p.WeightSamePatient <= 0 || p.WeightOtherPatient <= 0 {
		return fmt.Errorf("core: stream weights must be positive")
	}
	if p.WeightSameSession < p.WeightSamePatient || p.WeightSamePatient < p.WeightOtherPatient {
		return fmt.Errorf("core: stream weights must order same-session >= same-patient >= other-patient")
	}
	if p.DistThreshold <= 0 {
		return fmt.Errorf("core: DistThreshold must be positive, got %v", p.DistThreshold)
	}
	if p.StabilityThreshold <= 0 {
		return fmt.Errorf("core: StabilityThreshold must be positive, got %v", p.StabilityThreshold)
	}
	if p.MinQueryCycles < 1 || p.MaxQueryCycles < p.MinQueryCycles {
		return fmt.Errorf("core: query cycle bounds invalid: [%d, %d]", p.MinQueryCycles, p.MaxQueryCycles)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be >= 0, got %d", p.Parallelism)
	}
	return nil
}

// parallelism resolves the effective worker count for a search over
// the given number of candidate streams.
func (p Params) parallelism(streams int) int {
	n := p.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > streams {
		n = streams
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SourceRelation classifies where a candidate subsequence comes from
// relative to the query.
type SourceRelation uint8

// The three source relations, from most to least trusted.
const (
	SameSession SourceRelation = iota
	SamePatient
	OtherPatient
)

// String names the relation.
func (r SourceRelation) String() string {
	switch r {
	case SameSession:
		return "same-session"
	case SamePatient:
		return "same-patient"
	default:
		return "other-patient"
	}
}

// StreamWeight returns w_s for the given relation (1 when stream
// weighting is ablated off).
func (p Params) StreamWeight(r SourceRelation) float64 {
	if !p.UseStreamWeights {
		return 1
	}
	switch r {
	case SameSession:
		return p.WeightSameSession
	case SamePatient:
		return p.WeightSamePatient
	default:
		return p.WeightOtherPatient
	}
}

// ampFreqWeights returns (w_a, w_f), collapsing to (1, 1) when the
// amplitude/frequency layer is ablated off.
func (p Params) ampFreqWeights() (wa, wf float64) {
	if !p.UseAmpFreqWeights {
		return 1, 1
	}
	return p.WeightAmp, p.WeightFreq
}

// VertexWeights fills dst (reused if capacity allows) with the
// per-segment recency weights for a query of n vertices (n-1 segments):
// a linear ramp from VertexWeightBase at the oldest segment to 1 at the
// most recent, matching "w_i is between w_0 and 1; the nearer the
// vertex is to the end of the subsequence, the higher weight it has."
// With the layer ablated off, all weights are 1.
func (p Params) VertexWeights(dst []float64, n int) []float64 {
	m := n - 1
	if m < 0 {
		m = 0
	}
	if cap(dst) < m {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	if !p.UseVertexWeights || m == 0 {
		for i := range dst {
			dst[i] = 1
		}
		return dst
	}
	if m == 1 {
		dst[0] = 1
		return dst
	}
	w0 := p.VertexWeightBase
	for i := 0; i < m; i++ {
		dst[i] = w0 + (1-w0)*float64(i)/float64(m-1)
	}
	return dst
}

// MinQueryVertices converts the cycle lower bound to vertices: a
// regular breathing cycle contributes three segments (EX, EOE, IN), and
// a window of k segments needs k+1 vertices.
func (p Params) MinQueryVertices() int { return 3*p.MinQueryCycles + 1 }

// MaxQueryVertices converts the cycle upper bound to vertices.
func (p Params) MaxQueryVertices() int { return 3*p.MaxQueryCycles + 1 }

// statesEqual reports whether the two windows satisfy condition 1 of
// Definition 2: identical per-segment states.
func statesEqual(q, c plr.Sequence) bool {
	if len(q) != len(c) {
		return false
	}
	for i := 0; i < len(q)-1; i++ {
		if q[i].State != c[i].State {
			return false
		}
	}
	return true
}
