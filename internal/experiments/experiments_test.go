package experiments

import (
	"bytes"
	"strings"
	"testing"

	"stsmatch/internal/obs"
)

// quickEnv builds the shared quick-scale environment once per test
// binary; the experiments only read from it.
var quickEnvCache *Env

func quickEnv(t *testing.T) *Env {
	t.Helper()
	if quickEnvCache == nil {
		env, err := Setup(QuickScale)
		if err != nil {
			t.Fatal(err)
		}
		quickEnvCache = env
	}
	return quickEnvCache
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "full", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestSetupBuildsEnvironment(t *testing.T) {
	env := quickEnv(t)
	if env.DB.NumPatients() != QuickScale.Patients {
		t.Errorf("patients = %d", env.DB.NumPatients())
	}
	labels := env.Labels()
	if len(labels) != QuickScale.Patients {
		t.Errorf("labels = %d", len(labels))
	}
	for _, l := range labels {
		if l == "" {
			t.Error("empty label")
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"w_a", "1.00", "theta", "6.00", "lambda_min"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestFig6ShapeOnQuickScale(t *testing.T) {
	res, err := Fig6(quickEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Configs) != 5 || len(res.Errors) != 5 {
		t.Fatalf("configs = %d", len(res.Configs))
	}
	if err := res.ShapeHolds(); err != nil {
		t.Errorf("Figure 6 shape: %v", err)
	}
	if len(res.Tables()) != 3 {
		t.Error("expected three panels")
	}
}

func TestFig7ShapesOnQuickScale(t *testing.T) {
	a, err := Fig7a(quickEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// The full paper-shape assertion is enforced at default scale by
	// `cmd/experiments -check`; the quick cohort is too small for it
	// to be statistically stable, so assert the scale-robust core of
	// it here: no fixed length Pareto-dominates the dynamic strategy
	// by a clear margin.
	for i := range a.FixedErrors {
		if a.FixedErrors[i] < a.DynamicErr*0.95 && a.FixedCov[i] > a.DynamicCov*1.05 {
			t.Errorf("fixed-%d clearly dominates dynamic: err %.3f vs %.3f, cov %.2f vs %.2f",
				a.FixedCycles[i], a.FixedErrors[i], a.DynamicErr, a.FixedCov[i], a.DynamicCov)
		}
	}
	b, err := Fig7b(quickEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ShapeHolds(); err != nil {
		t.Errorf("Figure 7b shape: %v", err)
	}
}

func TestFig8ShapesOnQuickScale(t *testing.T) {
	env := quickEnv(t)
	a, err := Fig8a(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShapeHolds(); err != nil {
		t.Errorf("Figure 8a shape: %v", err)
	}
	b, err := Fig8b(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ShapeHolds(); err != nil {
		t.Errorf("Figure 8b shape: %v", err)
	}
	c, err := Fig8c(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ShapeHolds(); err != nil {
		t.Errorf("Figure 8c shape: %v", err)
	}
}

func TestFig9ShapeOnQuickScale(t *testing.T) {
	res, err := Fig9(quickEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ShapeHolds(); err != nil {
		t.Errorf("Figure 9 shape: %v", err)
	}
}

func TestAblationsRun(t *testing.T) {
	env := quickEnv(t)
	so, err := AblateStateOrder(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(so.Variants) != 2 {
		t.Error("state-order ablation variants")
	}
	// The precondition must help (strictly lower error with it on).
	if so.Errors[0] >= so.Errors[1] {
		t.Errorf("state order did not help: %v vs %v", so.Errors[0], so.Errors[1])
	}
	an, err := AblateAnchor(env)
	if err != nil {
		t.Fatal(err)
	}
	if an.Errors[0] >= an.Errors[1] {
		t.Errorf("last-vertex anchor should win: %v vs %v", an.Errors[0], an.Errors[1])
	}
}

func TestExtensionExperiments(t *testing.T) {
	env := quickEnv(t)
	fid, err := Fidelity(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := fid.ShapeHolds(); err != nil {
		t.Errorf("PLR fidelity shape: %v", err)
	}
	d3, err := Dims3(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := d3.ShapeHolds(); err != nil {
		t.Errorf("3-D shape: %v", err)
	}
	pr, err := Predictors(env)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Evaluated == 0 {
		t.Fatal("predictor comparison evaluated nothing")
	}
	// At quick scale only the robust half of the shape is asserted:
	// subsequence matching beats the no-predictor baseline at the
	// longest horizon.
	last := len(pr.Deltas) - 1
	if pr.Subsequence[last] >= pr.LastObserved[last] {
		t.Errorf("subsequence (%.3f) not better than last-observed (%.3f)",
			pr.Subsequence[last], pr.LastObserved[last])
	}
}

func TestSegmenterComparisonAndForecast(t *testing.T) {
	env := quickEnv(t)
	sc, err := CompareSegmenters(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.ShapeHolds(); err != nil {
		t.Errorf("segmenter comparison shape: %v", err)
	}
	fc, err := SegmentForecasts(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.ShapeHolds(); err != nil {
		t.Errorf("forecast shape: %v", err)
	}
}

func TestRunnerAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full runner sweep is slow for -short")
	}
	var out bytes.Buffer
	r := &Runner{Env: quickEnv(t), Out: &out}
	if err := r.Run("all"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 6a", "Figure 7b", "Figure 9", "Table 1", "Section 7.5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("runner output missing %q", want)
		}
	}
	if err := r.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Errorf("only %d experiments registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Error("names not sorted")
		}
	}
}

// TestEfficiencyPredictionLatencyTimed: Section 7.5's prediction latency
// times a funnel run per repetition, each at its own cut point, and
// reports it in fractional milliseconds: it is above zero, and no
// repetition is answered from the matcher's kept retrieval.
func TestEfficiencyPredictionLatencyTimed(t *testing.T) {
	env := quickEnv(t)
	reused := obs.Default().Counter("stsmatch_matcher_reused_total", "")
	before := reused.Value()
	r, err := Efficiency(env)
	if err != nil {
		t.Fatal(err)
	}
	if n := reused.Value() - before; n != 0 {
		t.Errorf("%d of the timed predictions were answered from the kept retrieval", n)
	}
	if !(r.PredictMS > 0) {
		t.Errorf("mean prediction latency %v ms, want > 0", r.PredictMS)
	}
}
