package baseline

import (
	"fmt"
	"sort"

	"stsmatch/internal/core"
	"stsmatch/internal/store"
)

// Method selects the baseline distance used by the Matcher.
type Method int

// The baseline distance methods.
const (
	MethodEuclidean Method = iota
	MethodWeightedEuclidean
	MethodDTW
	MethodLCSS
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodEuclidean:
		return "euclidean"
	case MethodWeightedEuclidean:
		return "weighted-euclidean"
	case MethodDTW:
		return "dtw"
	case MethodLCSS:
		return "lcss"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Matcher performs subsequence retrieval with a baseline distance.
// Unlike the core matcher, it knows nothing about states: candidates
// are *all* windows with the query's vertex count, which is exactly
// what makes the comparison with the model-based measure interesting.
type Matcher struct {
	DB     *store.DB
	Method Method

	// SamplePoints is the resample resolution for the distance
	// computation.
	SamplePoints int

	// TopK bounds the number of matches retrieved (the baselines have
	// no natural epsilon on the same scale as the core measure, so
	// retrieval is k-nearest).
	TopK int

	// W0 is the recency ramp base for MethodWeightedEuclidean.
	W0 float64

	// DTWWindow is the Sakoe-Chiba half-width for MethodDTW.
	DTWWindow int

	// LCSSEps is the value tolerance for MethodLCSS.
	LCSSEps float64
}

// NewMatcher returns a baseline matcher with sensible defaults for the
// method.
func NewMatcher(db *store.DB, method Method) *Matcher {
	return &Matcher{
		DB:           db,
		Method:       method,
		SamplePoints: 32,
		TopK:         20,
		W0:           0.8,
		DTWWindow:    8,
		LCSSEps:      2.0,
	}
}

// distance computes the configured baseline distance between two
// resampled vectors.
func (m *Matcher) distance(qv, cv []float64) (float64, error) {
	switch m.Method {
	case MethodEuclidean:
		return Euclidean(qv, cv)
	case MethodWeightedEuclidean:
		return WeightedEuclidean(qv, cv, nil, m.W0)
	case MethodDTW:
		return DTW(qv, cv, m.DTWWindow), nil
	case MethodLCSS:
		return LCSS(qv, cv, m.LCSSEps, m.DTWWindow), nil
	default:
		return 0, fmt.Errorf("baseline: unknown method %v", m.Method)
	}
}

// FindSimilar retrieves the TopK nearest windows to the query under
// the baseline distance. Results are core.Match, so they go through
// core.Matcher.PredictPosition like any others (this package has no
// prediction fold of its own); Weight is 1/(1+D) (no stream weighting —
// the baselines are deliberately structure-blind).
func (m *Matcher) FindSimilar(q core.Query) ([]core.Match, error) {
	n := len(q.Seq)
	if n < 2 {
		return nil, fmt.Errorf("baseline: query needs at least 2 vertices")
	}
	qv, err := Resample(q.Seq, m.SamplePoints, 0)
	if err != nil {
		return nil, err
	}
	var out []core.Match
	for _, st := range m.DB.Streams() {
		seq := st.Seq()
		sameStream := st.PatientID == q.PatientID && st.SessionID == q.SessionID
		for j := 0; j+n <= len(seq); j++ {
			cand := seq[j : j+n]
			if sameStream && cand[n-1].T >= q.Seq[0].T {
				continue // exclude the query's own present
			}
			cv, err := Resample(cand, m.SamplePoints, 0)
			if err != nil {
				return nil, err
			}
			d, err := m.distance(qv, cv)
			if err != nil {
				return nil, err
			}
			out = append(out, core.Match{
				Stream:   st,
				Start:    j,
				N:        n,
				Distance: d,
				Weight:   1 / (1 + d),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Distance < out[b].Distance })
	if len(out) > m.TopK {
		out = out[:m.TopK]
	}
	return out, nil
}
