package core

import (
	"cmp"
	"fmt"
	"slices"

	"stsmatch/internal/store"
)

// This file implements the standing-query half of the matcher: the
// same funnel driver as search (queryPlan.run), but fed incrementally
// by vertex arrival instead of a corpus scan. A StandingQuery builds
// its query plan once at registration; each arriving vertex then
// evaluates only the suffix windows it completes, so the per-vertex
// cost is independent of the corpus size (the subscription subsystem
// in internal/subscribe multiplexes many StandingQueries over the
// ingest hook).

// StandingQuery is a registered pattern with its precomputed query
// plan. It is immutable after construction and safe for concurrent
// use (evaluations share only read-only state).
type StandingQuery struct {
	plan *queryPlan
	k    int
}

// NewStandingQuery validates and precomputes a standing query.
// threshold <= 0 selects the params' distance threshold. k > 0 caps
// each evaluation batch to the k best new matches (ranked by the same
// total order the search uses); k == 0 emits every match within the
// threshold.
func NewStandingQuery(p Params, q Query, threshold float64, k int) (*StandingQuery, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := q.Seq.Validate(); err != nil {
		return nil, fmt.Errorf("core: standing query pattern: %w", err)
	}
	if k < 0 {
		return nil, fmt.Errorf("core: standing query needs k >= 0, got %d", k)
	}
	if threshold <= 0 {
		threshold = p.DistThreshold
	}
	plan, err := newQueryPlan(p, q, q.Seq.StateSignature(), threshold, nil)
	if err != nil {
		return nil, err
	}
	return &StandingQuery{plan: &plan, k: k}, nil
}

// Threshold returns the effective acceptance threshold.
func (sq *StandingQuery) Threshold() float64 { return sq.plan.threshold }

// EvalRange evaluates the windows of st that END at vertex indices in
// [fromEnd, toEnd): exactly the suffix windows completed by the
// vertices appended since the last evaluation, when the caller tracks
// fromEnd as its per-stream cursor. It is one funnel run over that
// start range, so a standing query's cumulative matches equal the diff
// of repeated full searches. The error is always nil.
func (sq *StandingQuery) EvalRange(st *store.Stream, fromEnd, toEnd int) ([]Match, FunnelCounts, error) {
	pl := sq.plan
	// An arrival completes a window or two: pass and hit buffers on the
	// stack.
	var starts [8]int32
	var lbs [8]float64
	var hits [8]hit
	c := candidateSet{view: st.ScanView(""), lo: fromEnd - pl.n + 1, hi: toEnd - pl.n + 1,
		sig: pl.scanSig, starts: starts[:], lbs: lbs[:]}
	rel := relationOf(pl.q, st)
	c.excludePresent(pl, rel)
	var w workerState
	found := pl.run(&w, st, rel, 0, &c, hits[:0])
	counts := w.counts
	var matches []Match
	if len(found) > 0 {
		matches = make([]Match, len(found))
		for i, h := range found {
			matches[i] = pl.match(st, rel, h)
		}
	}
	if sq.k > 0 && len(matches) > sq.k {
		slices.SortFunc(matches, matchCmp)
		dropped := len(matches) - sq.k
		counts.Matched -= dropped
		counts.DistRejected += dropped
		matches = matches[:sq.k]
		// Restore start order so event emission stays in stream order.
		slices.SortFunc(matches, func(a, b Match) int { return cmp.Compare(a.Start, b.Start) })
	}
	return matches, counts, nil
}
