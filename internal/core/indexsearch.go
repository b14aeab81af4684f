package core

import (
	"math"
	"time"

	"stsmatch/internal/sigindex"
	"stsmatch/internal/store"
)

// Index-backed candidate generation (PR 7). Instead of asking every
// stream for windows matching the query's state order, the search
// probes the shared window-signature index once per round: the probe
// returns, per stream, exactly the window starts whose signature
// matches AND whose amplitude/duration aggregates fall inside an
// envelope derived from the acceptance bound. The envelope is the
// inverse image of the O(1) lower bound, so every candidate the funnel
// could possibly accept is inside it — which is why the probed path
// returns byte-identical results to the scan path.
//
// Threshold mode needs a single probe at the threshold. Top-k mode
// starts from a deliberately tight envelope (most queries resolve in
// their immediate amplitude neighborhood) and widens it geometrically
// until one of three conditions proves no better candidate exists
// outside the envelope:
//
//  1. the probe was exhaustive — the envelope admitted every posting
//     under the signature, so widening cannot add candidates;
//  2. the bound reached the distance threshold — nothing beyond it can
//     be accepted anyway;
//  3. the result heap is full and its k-th distance is within the
//     probed bound — any unseen candidate has a lower bound, hence a
//     distance, strictly above the current k-th, so it cannot displace
//     a result even on a tie-break.
//
// The seed divisor and widening factor trade probe rounds against
// wasted candidate work: each round rescans everything the previous,
// tighter envelope admitted, so an over-tight seed pays for rounds a
// dense corpus immediately outgrows, while an over-loose seed scans
// the whole threshold ball when the top-k lived nearby. Seeding at a
// quarter of the threshold resolves dense-corpus top-k queries in one
// round and costs at most one extra round — T/4 then T — on sparse
// ones.
const (
	topKSeedDiv     = 4
	topKWidenFactor = 4
)

// probeStats is one search's probe telemetry for the "index.probe"
// trace span; counts mirror the stsmatch_sigindex_* metric deltas the
// same search produces. Every probe after the first is a widening.
type probeStats struct {
	probes          int
	candidates      int
	cells           int
	fallbackStreams int
	dur             time.Duration
}

// indexSearchable reports whether a query of n vertices can route
// candidate generation through the signature index: an index is
// attached and enabled, the state-order filter is on (the ablation
// path needs every window, which the index cannot enumerate), and the
// query's segment count lies inside the indexed window range.
func (m *Matcher) indexSearchable(n int) bool {
	return m.Index != nil && m.Params.UseIndex && m.Params.RequireStateOrder &&
		m.Index.Config().Covers(n-1)
}

// envelope converts an acceptance bound into the probe rectangle
// guaranteed to contain every candidate whose O(1) lower bound is
// within the bound. Inverting distanceLowerBound with the stream
// weight at its maximum (same-session: Validate orders the weights),
//
//	bound >= vwMin * (wa*|Δamp| + wf*|Δdur| - slack·mags) / (ws·wsum)
//
// gives the half-width budget g = bound·wsMax·wsum/vwMin, and the
// slack the lower bound deflates itself by is re-inflated here into a
// pad derived from the query aggregates and g, so float rounding can
// never exclude an admissible candidate. A bound at or beyond inf
// yields the unbounded envelope.
func (pl *queryPlan) envelope(bound float64) sigindex.ProbeQuery {
	q := sigindex.ProbeQuery{Sig: pl.sig}
	if bound >= inf || pl.vwMin <= 0 {
		q.AmpLo, q.AmpHi = math.Inf(-1), math.Inf(1)
		q.DurLo, q.DurHi = math.Inf(-1), math.Inf(1)
		return q
	}
	g := bound * pl.ws[SameSession] * pl.wsum / pl.vwMin
	pad := boundSlack * (2*(pl.wa*pl.ampQ+pl.wf*pl.durQ) + 4*g)
	ra := (g + pad) / pl.wa
	rd := (g + pad) / pl.wf
	q.AmpLo, q.AmpHi = pl.ampQ-ra, pl.ampQ+ra
	q.DurLo, q.DurHi = pl.durQ-rd, pl.durQ+rd
	return q
}

// probeRounds is the index-backed candidate source of search(). It
// consults the index's per-stream coverage once — streams that are
// unknown, stale (appended to without the hook), or poisoned generate
// their own candidates every round — then dispatches probe rounds
// until a termination condition proves the result set complete. Each
// top-k round restarts with an empty collector and drained workers, so
// only the final, complete round determines both the results and the
// counts.
func (m *Matcher) probeRounds(pl *queryPlan, active []*workerState, streams []*store.Stream) probeStats {
	cov := m.Index.Coverage()
	var ps probeStats
	var covered, fallback []streamWork
	for ord, st := range streams {
		c, ok := cov[sigindex.StreamKey{PatientID: st.PatientID, SessionID: st.SessionID}]
		if !ok || c.Poisoned || c.Vertices != st.Len() {
			fallback = append(fallback, streamWork{st: st, ord: ord})
			continue
		}
		covered = append(covered, streamWork{st: st, ord: ord})
	}
	ps.fallbackStreams = len(fallback)

	topK := pl.col != nil
	bound := pl.threshold
	if topK {
		seed := m.Params.DistThreshold
		if pl.threshold < seed {
			seed = pl.threshold
		}
		bound = seed / topKSeedDiv
	}
	for {
		pq := pl.envelope(bound)
		pq.Widened = ps.probes > 0
		if pq.Widened {
			// The collector bound must re-tighten from the threshold
			// over the wider candidate set.
			pl.col.reset()
			drainWorkers(active)
		}
		var t0 time.Time
		if pl.timed {
			t0 = time.Now()
		}
		pr := m.Index.Probe(pq)
		if pl.timed {
			ps.dur += time.Since(t0)
		}
		ps.probes++
		ps.candidates += pr.Candidates
		ps.cells += pr.Cells

		m.work = append(m.work[:0], fallback...)
		for _, it := range covered {
			it.probed = pr.Starts[sigindex.StreamKey{PatientID: it.st.PatientID, SessionID: it.st.SessionID}]
			if len(it.probed) == 0 {
				// The probe proves this stream offers nothing inside
				// the envelope: every window it could offer is pruned
				// without scoring any.
				if possible := it.st.Len() - pl.n + 1; possible > 0 {
					active[0].counts.Windows += possible
					active[0].counts.StateRejected += possible
				}
				continue
			}
			m.work = append(m.work, it)
		}
		pl.dispatch(active, m.work)

		if !topK || pr.Exhaustive || bound >= pl.threshold {
			return ps
		}
		if full, kd := pl.col.kth(); full && kd <= bound {
			return ps
		}
		bound *= topKWidenFactor
		if bound > pl.threshold {
			bound = pl.threshold
		}
	}
}
