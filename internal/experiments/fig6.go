package experiments

import (
	"fmt"

	"stsmatch/internal/baseline"
	"stsmatch/internal/core"
)

// Figure 6: prediction quality under different weighting factors of the
// subsequence distance function, plus the weighted-Euclidean
// comparison the paper discusses in Section 7.2.

// WeightConfig is one curve of Figure 6.
type WeightConfig struct {
	Name   string
	Params core.Params
}

// weightConfigs builds the five configurations of Figure 6, from "no
// weighting" to "with all weighting".
func weightConfigs() []WeightConfig {
	mk := func(name string, ampFreq, stream, vertex bool) WeightConfig {
		p := core.DefaultParams()
		p.UseAmpFreqWeights = ampFreq
		p.UseStreamWeights = stream
		p.UseVertexWeights = vertex
		return WeightConfig{Name: name, Params: p}
	}
	return []WeightConfig{
		mk("no-weighting", false, false, false),
		mk("wa,wf", true, false, false),
		mk("wa,wf+ws", true, true, false),
		mk("wa,wf+wi", true, false, true),
		mk("all-weighting", true, true, true),
	}
}

// Fig6Result carries the three panels of Figure 6.
type Fig6Result struct {
	Deltas  []float64
	Configs []string
	// Errors[c][d] is the mean prediction error of config c at
	// horizon Deltas[d] (Figure 6a).
	Errors [][]float64
	// Reduction[c] is the error reduction of config c relative to
	// no-weighting, averaged over horizons (Figure 6b).
	Reduction []float64
	// Average[c] is the horizon-averaged error (Figure 6c).
	Average []float64
	// EuclideanAvg is the horizon-averaged error of the weighted
	// Euclidean baseline (Section 7.2's comparison).
	EuclideanAvg float64
}

// Fig6 runs the weighting-factor study.
func Fig6(env *Env) (*Fig6Result, error) {
	configs := weightConfigs()
	opts := core.DefaultEvalOptions()
	opts.QueriesPerStream = env.Scale.QueriesPerStream

	res := &Fig6Result{Deltas: opts.Deltas}
	for _, wc := range configs {
		m, err := core.NewMatcher(env.DB, wc.Params)
		if err != nil {
			return nil, err
		}
		er, err := m.Evaluate(opts)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", wc.Name, err)
		}
		res.Configs = append(res.Configs, wc.Name)
		curve := make([]float64, len(er.PerDelta))
		for i, d := range er.PerDelta {
			curve[i] = d.MeanError()
		}
		res.Errors = append(res.Errors, curve)
		res.Average = append(res.Average, er.MeanError())
	}
	base := res.Average[0]
	for _, avg := range res.Average {
		red := 0.0
		if base > 0 {
			red = (base - avg) / base
		}
		res.Reduction = append(res.Reduction, red)
	}

	// The weighted Euclidean baseline, scored against all-weighting (the
	// last configuration) with that curve's parameters.
	euc, err := baselineError(env, configs[len(configs)-1].Params, opts)
	if err != nil {
		return nil, fmt.Errorf("fig6 weighted-euclidean: %w", err)
	}
	res.EuclideanAvg = euc
	return res, nil
}

// baselineError replays the protocol with the weighted-Euclidean retrieval
// in place of the core matcher's — same cuts, queries, prediction fold
// (with p's anchor) and truth, so the distance function is the only thing
// that varies — and returns the horizon-averaged mean error.
func baselineError(env *Env, p core.Params, opts core.EvalOptions) (float64, error) {
	m, err := core.NewMatcher(env.DB, p)
	if err != nil {
		return 0, err
	}
	bm := baseline.NewMatcher(env.DB, baseline.MethodWeightedEuclidean)
	er, err := m.Replay(opts, bm.FindSimilar, nil)
	return er.MeanError(), err
}

// Tables renders the three panels.
func (r *Fig6Result) Tables() []*Table {
	a := &Table{
		Title:  "Figure 6a: mean prediction error (mm) vs horizon",
		Header: append([]string{"delta(ms)"}, r.Configs...),
		Comment: "paper shape: no-weighting worst, partial weighting better, " +
			"all-weighting best at every horizon",
	}
	for di, d := range r.Deltas {
		row := []string{fmt.Sprintf("%.0f", d*1000)}
		for ci := range r.Configs {
			row = append(row, f3(r.Errors[ci][di]))
		}
		a.AddRow(row...)
	}

	b := &Table{
		Title:   "Figure 6b: error reduction vs no-weighting",
		Header:  []string{"config", "reduction"},
		Comment: "positive = better than unweighted distance",
	}
	for ci, name := range r.Configs {
		b.AddRow(name, pct(r.Reduction[ci]))
	}

	c := &Table{
		Title:  "Figure 6c: error averaged over all horizons (mm)",
		Header: []string{"config", "mean error"},
		Comment: fmt.Sprintf("weighted-Euclidean baseline (same protocol): %.3f mm — "+
			"the model-based weighted distance must beat it", r.EuclideanAvg),
	}
	for ci, name := range r.Configs {
		c.AddRow(name, f3(r.Average[ci]))
	}
	return []*Table{a, b, c}
}

// ShapeHolds verifies the paper's qualitative claims on this run:
// all-weighting is the best configuration and beats both no-weighting
// and the weighted Euclidean baseline.
func (r *Fig6Result) ShapeHolds() error {
	last := len(r.Average) - 1
	if r.Average[last] >= r.Average[0] {
		return fmt.Errorf("all-weighting (%.3f) not better than no-weighting (%.3f)",
			r.Average[last], r.Average[0])
	}
	if r.Average[last] >= r.EuclideanAvg {
		return fmt.Errorf("all-weighting (%.3f) not better than weighted Euclidean (%.3f)",
			r.Average[last], r.EuclideanAvg)
	}
	return nil
}
