package experiments

import (
	"fmt"
	"time"

	"stsmatch/internal/baseline"
	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/store"
)

// Ablations beyond the paper's figures, as indexed in DESIGN.md §6:
// the state-order precondition, the n-gram candidate index, the
// prediction anchor, and the DTW cost argument.

// AblationResult is a generic named-variant comparison.
type AblationResult struct {
	Title    string
	Variants []string
	Errors   []float64 // mean prediction error per variant (mm), NaN if n/a
	Notes    []string
}

// Table renders an ablation.
func (r *AblationResult) Table() *Table {
	t := &Table{Title: r.Title, Header: []string{"variant", "mean error (mm)", "notes"}}
	for i := range r.Variants {
		note := ""
		if i < len(r.Notes) {
			note = r.Notes[i]
		}
		t.AddRow(r.Variants[i], f3(r.Errors[i]), note)
	}
	return t
}

// AblateStateOrder compares matching with and without condition 1 of
// Definition 2 — the claim that comparing subsequences with different
// meanings (an inhale against an exhale) hurts prediction.
func AblateStateOrder(env *Env) (*AblationResult, error) {
	opts := core.DefaultEvalOptions()
	opts.QueriesPerStream = env.Scale.QueriesPerStream

	res := &AblationResult{Title: "Ablation: state-order precondition (Definition 2, condition 1)"}
	for _, on := range []bool{true, false} {
		p := core.DefaultParams()
		p.RequireStateOrder = on
		m, err := core.NewMatcher(env.DB, p)
		if err != nil {
			return nil, err
		}
		er, err := m.Evaluate(opts)
		if err != nil {
			return nil, err
		}
		name := "state order required"
		if !on {
			name = "state order ignored"
		}
		res.Variants = append(res.Variants, name)
		res.Errors = append(res.Errors, er.MeanError())
		res.Notes = append(res.Notes, fmt.Sprintf("coverage %.2f", er.Coverage()))
	}
	return res, nil
}

// AblateAnchor compares the two prediction anchors (see DESIGN.md §3):
// the paper-faithful first-vertex anchor versus the last-vertex anchor
// used by default.
func AblateAnchor(env *Env) (*AblationResult, error) {
	opts := core.DefaultEvalOptions()
	opts.QueriesPerStream = env.Scale.QueriesPerStream
	res := &AblationResult{Title: "Ablation: prediction anchor (Section 4.3 formula reading)"}
	for _, end := range []bool{true, false} {
		p := core.DefaultParams()
		p.AnchorAtQueryEnd = end
		m, err := core.NewMatcher(env.DB, p)
		if err != nil {
			return nil, err
		}
		er, err := m.Evaluate(opts)
		if err != nil {
			return nil, err
		}
		name := "last vertex (default)"
		if !end {
			name = "first vertex (paper formula)"
		}
		res.Variants = append(res.Variants, name)
		res.Errors = append(res.Errors, er.MeanError())
		res.Notes = append(res.Notes, fmt.Sprintf("33ms err %.3f / 330ms err %.3f",
			er.PerDelta[0].MeanError(), er.PerDelta[len(er.PerDelta)-1].MeanError()))
	}
	return res, nil
}

// IndexAblationResult compares candidate generation with and without
// the n-gram index.
type IndexAblationResult struct {
	ScanUS    float64
	IndexedUS float64
	Queries   int
}

// AblateIndex measures FindSimilar latency with the stream indexes
// enabled (Setup's database) versus disabled. Indexes cannot be disabled
// in place, so the scan path runs on a copy rebuilt from the raw cohort.
func AblateIndex(env *Env) (*IndexAblationResult, error) {
	// measure builds queries from the first few streams of db and times
	// their retrieval.
	measure := func(db *store.DB) (us float64, n int, err error) {
		m, err := core.NewMatcher(db, core.DefaultParams())
		if err != nil {
			return 0, 0, err
		}
		var queries []core.Query
		for _, st := range db.Streams() {
			seq := st.Seq()
			if len(seq) < 30 {
				continue
			}
			qseq, _ := m.Params.DynamicQuery(seq[:len(seq)-2])
			queries = append(queries, core.NewQuery(qseq, st.PatientID, st.SessionID))
			if len(queries) >= 8 {
				break
			}
		}
		if len(queries) == 0 {
			return 0, 0, fmt.Errorf("ablate-index: no usable queries")
		}
		const reps = 5
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, q := range queries {
				if _, err := m.FindSimilar(q, nil); err != nil {
					return 0, 0, err
				}
			}
		}
		return float64(time.Since(start).Microseconds()) / float64(reps*len(queries)), len(queries), nil
	}

	indexedUS, n, err := measure(env.DB)
	if err != nil {
		return nil, err
	}
	scanDB, err := dataset.FromCohort(env.Cohort, fsm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	scanUS, _, err := measure(scanDB)
	if err != nil {
		return nil, err
	}
	return &IndexAblationResult{ScanUS: scanUS, IndexedUS: indexedUS, Queries: n}, nil
}

// Table renders the index ablation.
func (r *IndexAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: n-gram candidate index vs state-string scan",
		Header: []string{"candidate generation", "us/query"},
		Comment: fmt.Sprintf("%d queries; both paths must return identical windows "+
			"(asserted by store tests); speedup %.1fx — note the 4-letter state "+
			"alphabet makes breathing signatures highly repetitive, so gram postings "+
			"are long and the index only pays off on large or diverse databases",
			r.Queries, r.ScanUS/max(r.IndexedUS, 1)),
	}
	t.AddRow("linear scan", f1(r.ScanUS))
	t.AddRow("n-gram index", f1(r.IndexedUS))
	return t
}

// DTWCostResult reproduces the Section 7.2 justification for not using
// DTW online: its per-query cost against the same database.
type DTWCostResult struct {
	CoreUS float64
	DTWUS  float64
}

// DTWCost measures one retrieval with the core measure versus DTW.
func DTWCost(env *Env) (*DTWCostResult, error) {
	m, err := core.NewMatcher(env.DB, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	st := env.DB.Streams()[0]
	seq := st.Seq()
	qseq, _ := m.Params.DynamicQuery(seq[:len(seq)-2])
	q := core.NewQuery(qseq, st.PatientID, st.SessionID)

	start := time.Now()
	const reps = 10
	for r := 0; r < reps; r++ {
		if _, err := m.FindSimilar(q, nil); err != nil {
			return nil, err
		}
	}
	coreUS := float64(time.Since(start).Microseconds()) / reps

	bm := baseline.NewMatcher(env.DB, baseline.MethodDTW)
	start = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := bm.FindSimilar(q); err != nil {
			return nil, err
		}
	}
	dtwUS := float64(time.Since(start).Microseconds()) / reps
	return &DTWCostResult{CoreUS: coreUS, DTWUS: dtwUS}, nil
}

// Table renders the DTW comparison.
func (r *DTWCostResult) Table() *Table {
	t := &Table{
		Title:  "Section 7.2: retrieval cost, weighted PLR distance vs DTW",
		Header: []string{"method", "us/query"},
		Comment: fmt.Sprintf("paper: \"the running time of DTW is very computationally "+
			"expensive, which makes it not suitable for real-time prediction\"; measured ratio %.0fx",
			r.DTWUS/max(r.CoreUS, 1)),
	}
	t.AddRow("weighted PLR distance", f1(r.CoreUS))
	t.AddRow("DTW (banded)", f1(r.DTWUS))
	return t
}
