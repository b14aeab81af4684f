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
	ok bool
	searchKey
	version uint64 // db.Version(), read before the search listed its streams
	streams []*store.Stream
	hits    []hit // in matchCmp order; a hit's ord indexes streams
	counts  FunnelCounts
}

// holds reports whether the kept retrieval answers an unrestricted
// threshold search for q under p over db at version.
func (k *kept) holds(db *store.DB, version uint64, p Params, threshold float64, q Query) bool {
	return k.ok && k.version == version && k.is(db, p, threshold, 0, q)
}

// searchKey is what a kept search was asked: the database, the
// parameters, the acceptance threshold, k (0 for a threshold search) and
// the query, by value, but for its Now, which no stage of the funnel
// reads: two searches that differ only in Now have one answer.
type searchKey struct {
	db        *store.DB
	params    Params
	threshold float64
	k         int
	q         Query     // by value: its positions are in pos
	pos       []float64 // the query's positions, vertex after vertex
}

// is reports whether the key is that of a search for q under p over db
// with the threshold and k given.
func (s *searchKey) is(db *store.DB, p Params, threshold float64, k int, q Query) bool {
	if s.db != db || s.k != k || s.params != p || !sameFloat(s.threshold, threshold) ||
		s.q.PatientID != q.PatientID || s.q.SessionID != q.SessionID ||
		len(s.q.Seq) != len(q.Seq) {
		return false
	}
	for i, v := range q.Seq {
		w := s.q.Seq[i]
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

// set makes the key that of a search for q under p over db with the
// threshold and k given. The query is copied, never aliased: a caller may
// reuse its buffers.
func (s *searchKey) set(db *store.DB, p Params, threshold float64, k int, q Query) {
	s.db, s.params, s.threshold, s.k = db, p, threshold, k
	s.pos = s.pos[:0]
	for _, v := range q.Seq {
		s.pos = append(s.pos, v.Pos...)
	}
	seq := append(s.q.Seq[:0], q.Seq...)
	at := 0
	for i, v := range seq {
		seq[i].Pos = s.pos[at : at+len(v.Pos) : at+len(v.Pos)]
		at += len(v.Pos)
	}
	s.q = Query{Seq: seq, PatientID: q.PatientID, SessionID: q.SessionID}
}

// keep records the key of a search and the streams it listed; the
// caller fills in hits and counts, and sets ok once the search has
// completed.
func (k *kept) keep(db *store.DB, version uint64, p Params, threshold float64, q Query, streams []*store.Stream) {
	k.set(db, p, threshold, 0, q)
	k.version = version
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
