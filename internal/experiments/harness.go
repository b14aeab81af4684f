// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) on the synthetic cohort, plus the
// ablations DESIGN.md calls out. Each experiment returns a structured
// result with a stable text rendering; cmd/experiments prints them and
// EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"
	"strings"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

// Scale selects the workload size. The paper used >2M raw points from
// 42 patients; Full approaches that, Default is laptop-scale with the
// same structure, Quick exists for tests.
type Scale struct {
	Name             string
	Patients         int
	Sessions         int
	SessionDur       float64 // seconds
	QueriesPerStream int
	QueryStride      int // offline stream-distance stride
}

// Predefined scales.
var (
	QuickScale   = Scale{Name: "quick", Patients: 8, Sessions: 3, SessionDur: 75, QueriesPerStream: 6, QueryStride: 6}
	DefaultScale = Scale{Name: "default", Patients: 12, Sessions: 4, SessionDur: 90, QueriesPerStream: 10, QueryStride: 4}
	FullScale    = Scale{Name: "full", Patients: 42, Sessions: 8, SessionDur: 180, QueriesPerStream: 12, QueryStride: 8}
)

// ScaleByName resolves a -scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale, nil
	case "default", "":
		return DefaultScale, nil
	case "full":
		return FullScale, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (quick|default|full)", name)
}

// Env is the shared experimental environment: the segmented database,
// the raw cohort (ground truth) and the scale it was built at.
type Env struct {
	Scale  Scale
	DB     *store.DB
	Cohort []signal.PatientData
}

// Setup builds the environment deterministically (seed 42).
func Setup(s Scale) (*Env, error) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients = s.Patients
	cfg.SessionsPer = s.Sessions
	cfg.SessionDur = s.SessionDur
	db, cohort, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Env{Scale: s, DB: db, Cohort: cohort}, nil
}

// Labels returns the ground-truth breathing-class labels in patient
// order (for scoring clusterings).
func (e *Env) Labels() []string {
	out := make([]string, len(e.Cohort))
	for i, pd := range e.Cohort {
		out[i] = pd.Profile.Class.String()
	}
	return out
}

// Table renders rows of (label, values...) with a header, right-aligned
// numeric columns, for uniform experiment output.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Comment string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	writeRow(dashes(widths))
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Comment != "" {
		fmt.Fprintf(&b, "# %s\n", t.Comment)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Table1 reports the parameter settings in use — the reproduction of
// the paper's Table 1.
func Table1() *Table {
	p := core.DefaultParams()
	t := &Table{
		Title:  "Table 1: Settings of Parameters",
		Header: []string{"parameter", "symbol", "value"},
		Comment: "identical to the paper's Table 1; vertex weights are the " +
			"linear ramp w_i in (w0, 1], source weights by relation",
	}
	t.AddRow("Weight for amplitude", "w_a", f2(p.WeightAmp))
	t.AddRow("Weight for frequency", "w_f", f2(p.WeightFreq))
	t.AddRow("Weight for vertexes", "w_0", f2(p.VertexWeightBase))
	t.AddRow("Weight for source streams (same session)", "w_s", f2(p.WeightSameSession))
	t.AddRow("Weight for source streams (same patient)", "w_s", f2(p.WeightSamePatient))
	t.AddRow("Weight for source streams (other patient)", "w_s", f2(p.WeightOtherPatient))
	t.AddRow("Subsequence distance threshold", "eps", f2(p.DistThreshold))
	t.AddRow("Stability threshold", "theta", f2(p.StabilityThreshold))
	t.AddRow("Min query length (cycles)", "lambda_min", fmt.Sprintf("%d", p.MinQueryCycles))
	t.AddRow("Max query length (cycles)", "lambda_max", fmt.Sprintf("%d", p.MaxQueryCycles))
	return t
}
