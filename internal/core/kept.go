package core

import (
	"context"
	"math"
	"slices"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/store"
)

// kept is a matcher's last unrestricted threshold retrieval: every input
// of the funnel run that made it, and its hits in the result order.
// Section 4.3 predicts from the retrieval of the stream's dynamic query,
// and between two vertex closes neither that query nor the database
// changes: a prediction loop asks again with new horizons only. Such a
// search is answered from the hits, without the funnel. Stored windows
// never change and the key holds everything the funnel reads, so the
// answer is, bit for bit, the one the funnel would give.
//
// A reused answer records the kept run's funnel counts again, so the
// stsmatch_matcher_* funnel series count, search for search, what the
// funnel finds whether it ran or not; stsmatch_matcher_reused_total
// counts the answers for which it did not.
//
// A top-k or restricted search neither reads nor writes it; an
// unrestricted threshold search that fails or panics leaves it empty.
type kept struct {
	ok        bool
	db        *store.DB
	version   uint64 // db.Version(), read before the search listed its streams
	params    Params
	threshold float64
	q         Query     // by value: its positions are in pos
	pos       []float64 // the query's positions, vertex after vertex
	streams   []*store.Stream
	hits      []hit // in matchCmp order; a hit's ord indexes streams
	counts    FunnelCounts
}

// holds reports whether the kept retrieval answers an unrestricted
// threshold search for q under p over db at version.
func (k *kept) holds(db *store.DB, version uint64, p Params, threshold float64, q Query) bool {
	if !k.ok || k.db != db || k.version != version || k.params != p || !sameFloat(k.threshold, threshold) ||
		k.q.PatientID != q.PatientID || k.q.SessionID != q.SessionID || !sameFloat(k.q.Now, q.Now) ||
		len(k.q.Seq) != len(q.Seq) {
		return false
	}
	for i, v := range q.Seq {
		w := k.q.Seq[i]
		if !sameFloat(w.T, v.T) || w.State != v.State || len(w.Pos) != len(v.Pos) {
			return false
		}
		for j, x := range v.Pos {
			if !sameFloat(w.Pos[j], x) {
				return false
			}
		}
	}
	return true
}

// sameFloat is equality of the bits: what the funnel can tell apart.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// keep records the key of a search and the streams it listed; the
// caller fills in hits and counts, and sets ok once the search has
// completed. The query is copied, never aliased: a caller may reuse its
// buffers.
func (k *kept) keep(db *store.DB, version uint64, p Params, threshold float64, q Query, streams []*store.Stream) {
	k.db, k.version, k.params, k.threshold = db, version, p, threshold
	k.pos = k.pos[:0]
	for _, v := range q.Seq {
		k.pos = append(k.pos, v.Pos...)
	}
	seq := append(k.q.Seq[:0], q.Seq...)
	at := 0
	for i, v := range seq {
		seq[i].Pos = k.pos[at : at+len(v.Pos) : at+len(v.Pos)]
		at += len(v.Pos)
	}
	k.q = Query{Seq: seq, PatientID: q.PatientID, SessionID: q.SessionID, Now: q.Now}
	k.streams = append(k.streams[:0], streams...)
}

// reuse answers a search at version from the kept retrieval: a
// threshold search's Matches, or with fc the forecast folded over the
// kept hits at fc's horizons. A forecast reads the hits' streams, so it
// stands only if the version still reads the same afterwards: an append
// that landed meanwhile may have shown it vertices the retrieval never
// saw. A traced search records its span, marked reused, with no funnel
// stages under it.
func (m *Matcher) reuse(ctx context.Context, start time.Time, version uint64, q Query, fc *forecast) ([]Match, bool) {
	k := &m.kept
	pl := queryPlan{q: q, n: len(q.Seq), ws: streamWeights(m.Params)}
	var out []Match
	if fc != nil {
		fc.refold(&pl, k.streams, k.hits)
		if m.DB.Version() != version {
			return nil, false
		}
	} else {
		out = make([]Match, len(k.hits))
		for i, h := range k.hits {
			st := k.streams[h.ord]
			out[i] = pl.match(st, relationOf(q, st), h)
		}
	}
	k.counts.record()
	mReused.Inc()
	mQueryLen.Observe(float64(pl.n))
	took := time.Since(start)
	mSearchSeconds.Observe(took.Seconds())
	if obs.SpanFromContext(ctx).Recording() {
		obs.AddSpan(ctx, "matcher.search", start, took, map[string]any{"reused": true, "queryLen": pl.n, "matches": len(k.hits)})
	}
	return out, true
}

// keptHits is the hit list of the funnel run that just merged, in the
// result order: from rank's Matches, or from the forecast's ordered refs.
func keptHits(dst []hit, out []Match, fc *forecast, workers []*workerState) []hit {
	if fc == nil {
		dst = slices.Grow(dst, len(out))
		for _, mt := range out {
			dst = append(dst, hit{dist: mt.Distance, start: int32(mt.Start), ord: mt.ord})
		}
		return dst
	}
	dst = slices.Grow(dst, len(fc.refs))
	for _, r := range fc.refs {
		dst = append(dst, workers[r.wk].hits[r.i])
	}
	return dst
}
