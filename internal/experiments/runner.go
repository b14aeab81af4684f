package experiments

import (
	"fmt"
	"io"
	"sort"

	"stsmatch/internal/core"
)

// Runner executes named experiments and writes their reports.
type Runner struct {
	Env *Env
	Out io.Writer
	// CheckShapes makes Run fail when a paper-shape assertion does not
	// hold on this run.
	CheckShapes bool
}

// registry maps experiment ids (as used by the -exp flag and
// DESIGN.md's per-experiment index) to implementations. fig6a/b/c are one
// computation that prints all three panels.
var registry = map[string]func(*Env) (any, error){
	"table1":               exp(func(*Env) (*Table, error) { return Table1(), nil }),
	"fig6a":                exp(Fig6),
	"fig6b":                exp(Fig6),
	"fig6c":                exp(Fig6),
	"fig7a":                exp(Fig7a),
	"fig7b":                exp(Fig7b),
	"fig8a":                exp(Fig8a),
	"fig8b":                exp(Fig8b),
	"fig8c":                exp(Fig8c),
	"fig9":                 exp(Fig9),
	"efficiency":           exp(Efficiency),
	"ablate-state-order":   exp(AblateStateOrder),
	"ablate-anchor":        exp(AblateAnchor),
	"dtw-cost":             exp(DTWCost),
	"tuning":               exp(Tuning),
	"ext-predictors":       exp(Predictors),
	"plr-fidelity":         exp(Fidelity),
	"dims3":                exp(Dims3),
	"ablate-segmenter":     exp(CompareSegmenters),
	"ext-segment-forecast": exp(SegmentForecasts),
}

// exp erases an experiment's result type for the registry.
func exp[T any](f func(*Env) (T, error)) func(*Env) (any, error) {
	return func(env *Env) (any, error) { return f(env) }
}

// run executes one registered experiment: it prints the table or tables
// the result renders, then checks the paper shape if the result asserts
// one.
func (r *Runner) run(name string) error {
	res, err := registry[name](r.Env)
	if err != nil {
		return err
	}
	switch v := res.(type) {
	case *Table:
		fmt.Fprintln(r.Out, v)
	case interface{ Table() *Table }:
		fmt.Fprintln(r.Out, v.Table())
	case interface{ Tables() []*Table }:
		for _, t := range v.Tables() {
			fmt.Fprintln(r.Out, t)
		}
	}
	if s, ok := res.(interface{ ShapeHolds() error }); ok {
		return r.check(s.ShapeHolds())
	}
	return nil
}

// Tuning demonstrates the automatic parameter tuning extension.
func Tuning(env *Env) (*Table, error) {
	opts := core.DefaultEvalOptions()
	opts.Deltas = []float64{0.1, 0.3}
	opts.QueriesPerStream = max(2, env.Scale.QueriesPerStream/2)
	res, err := core.Tune(env.DB, core.DefaultParams(), core.DefaultTuneSpace(), opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension: automatic parameter tuning (paper future work)",
		Header: []string{"parameter", "value", "mean error (mm)"},
		Comment: fmt.Sprintf("coordinate grid search; best error %.3f mm with WeightFreq=%.2f "+
			"VertexWeightBase=%.2f eps=%.1f theta=%.1f", res.BestError,
			res.Best.WeightFreq, res.Best.VertexWeightBase,
			res.Best.DistThreshold, res.Best.StabilityThreshold),
	}
	for _, step := range res.Trace {
		t.AddRow(step.Param, f2(step.Value), f3(step.Error))
	}
	return t, nil
}

func (r *Runner) check(err error) error {
	if err == nil || !r.CheckShapes {
		if err != nil {
			fmt.Fprintf(r.Out, "! shape check failed (non-fatal): %v\n\n", err)
		}
		return nil
	}
	return err
}

// Names returns all experiment ids in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id ("all" runs everything, Figure 6 once).
func (r *Runner) Run(name string) error {
	if name == "all" {
		for _, n := range Names() {
			if n == "fig6b" || n == "fig6c" {
				continue // fig6a prints all panels
			}
			fmt.Fprintf(r.Out, "### %s\n", n)
			if err := r.run(n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have: %v)", name, Names())
	}
	return r.run(name)
}
