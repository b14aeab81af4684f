package core

import (
	"slices"

	"stsmatch/internal/store"
)

// OfflineSearch is Section 5's client of the funnel. The offline distance
// is Definition 2 with every vertex weight 1 (offline there is no "current
// time"), and Definition 3 asks, for each window of one stream, for its h
// nearest windows in another: a top-h search scoped to one stream, one
// queryPlan.run over one candidate set. Plan, collector and pass buffers
// are kept between searches, so a search allocates nothing. Not safe for
// concurrent use: internal/cluster keeps one per worker.
type OfflineSearch struct {
	params Params
	plan   queryPlan // its vw is the next plan's scratch buffer
	col    *collector
	w      workerState
	dists  []float64
}

// NewOfflineSearch prepares top-h searches under p's amplitude, frequency
// and source-stream weights. cluster.Config.Validate vouches for p and h.
func NewOfflineSearch(p Params, h int) *OfflineSearch {
	p.UseVertexWeights = false
	return &OfflineSearch{params: p, col: newCollector(h, inf), dists: make([]float64, 0, h),
		w: workerState{starts: make([]int32, passBlock), lbs: make([]float64, passBlock)}}
}

// TopH returns, ascending, the h smallest offline distances between the
// query window q and the windows of s with its state order, or ok ==
// false when s holds fewer than h of them at a finite distance: the
// outlier query of Definition 3. q carries the IDs of the stream it was
// cut from (they decide the source weight), sig is its state signature
// (see newQueryPlan). self is q's own start in s when q was cut from s
// itself, negative otherwise: only that window is excluded, so that a
// stream resembles itself through its other occurrences of the pattern —
// not the online rule. The returned slice is valid until the next call.
func (o *OfflineSearch) TopH(q Query, sig string, s *store.Stream, self int) (dists []float64, ok bool) {
	var err error
	if o.plan, err = newQueryPlan(o.params, q, sig, inf, o.plan.vw); err != nil {
		return nil, false // no segment to compare
	}
	o.plan.col = o.col
	o.col.reset()
	// An outlier is defined by state order: sig filters, ablated or not.
	c := candidateSet{view: s.ScanView(sig), sig: sig, exLo: self, exHi: self + 1, starts: o.w.starts, lbs: o.w.lbs}
	c.hi = c.view.Len()
	o.plan.run(&o.w, s, relationOf(q, s), 0, &c, nil)
	if len(o.col.heap) < o.col.k {
		return nil, false
	}
	o.dists = o.dists[:0]
	for _, m := range o.col.heap {
		o.dists = append(o.dists, m.Distance)
	}
	slices.Sort(o.dists)
	return o.dists, true
}
