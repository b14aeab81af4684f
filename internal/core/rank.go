package core

import (
	"math"
	"slices"

	"stsmatch/internal/store"
)

// hit is a window a funnel run accepted in threshold mode, as small as
// the result order needs it: what a consumer of the order makes of a hit
// is made once, where the hit belongs in the order, so nothing larger is
// moved except inside a bucket that holds several.
type hit struct {
	dist       float64
	start, ord int32 // window start; the stream's place in the search's stream list
}

// bucketsPerHit sizes order's bucket table: at four buckets a hit most
// matches are alone in theirs (measured at 1, 2, 4 and 8: DESIGN §10).
const bucketsPerHit = 4

// order is the one routine that puts a threshold search's hits in the
// matchCmp total order. It has two consumers, and writes each hit at its
// place in the order for whichever called: rank passes out, and gets
// FindSimilar's Matches, each built in its place; forecast.fold passes
// refs, and gets a reference to each hit (its worker, its index there,
// its stream's relation to the query) to sum through, with a nil out.
// The slice written holds one place per hit. (A branch per hit on which
// it is, not a callback: a call per hit cost rank 13 % at 300 hits.)
//
// It works by placement: the hits are counted into buckets that are
// monotone in distance — bucket (d-dmin)·scale over the range the
// workers observed, so no hit of a lower bucket has a larger distance
// than one of a higher bucket and equal distances share one — a prefix
// sum turns the counts into each bucket's place in the order, every hit
// is placed once, at its bucket's cursor, and only a bucket holding
// several is sorted. A range that does not scale (zero: all distances
// equal) is the one-bucket case, place and sort; no result is small
// enough for that to be the cheaper way (measured from two hits up:
// DESIGN §10).
func (m *Matcher) order(pl *queryPlan, workers []*workerState, streams []*store.Stream, out []Match, refs []hitRef) {
	total, dmin, dmax := 0, 0.0, 0.0
	for _, w := range workers {
		if len(w.hits) == 0 {
			continue
		}
		if total == 0 || w.dmin < dmin {
			dmin = w.dmin
		}
		total, dmax = total+len(w.hits), max(dmax, w.dmax)
	}
	nb := bucketsPerHit * total
	scale := float64(nb) / (dmax - dmin)
	if !(scale <= math.MaxFloat64) {
		nb, scale = 1, 0
	}
	bucket := func(d float64) int { return min(int((d-dmin)*scale), nb-1) }

	m.buckets = slices.Grow(m.buckets[:0], nb)[:nb]
	at := m.buckets
	clear(at)
	for _, w := range workers {
		for _, h := range w.hits {
			at[bucket(h.dist)]++
		}
	}
	next := int32(0)
	for b, n := range at {
		at[b], next = next, next+n
	}
	for wk, w := range workers {
		// A worker's hits come a stream at a time.
		var st *store.Stream
		var rel SourceRelation
		ord := int32(-1)
		for i, h := range w.hits {
			if h.ord != ord {
				ord, st = h.ord, streams[h.ord]
				rel = relationOf(pl.q, st)
			}
			b := bucket(h.dist)
			if out != nil {
				out[at[b]] = pl.match(st, rel, h)
			} else {
				refs[at[b]] = hitRef{wk: int32(wk), i: int32(i), rel: rel}
			}
			at[b]++
		}
	}
	// Every cursor now stands at its bucket's end.
	refCmp := func(a, b hitRef) int { return matchCmp(refKey(workers, streams, a), refKey(workers, streams, b)) }
	lo := int32(0)
	for _, hi := range at {
		switch {
		case hi-lo <= 1:
		case out != nil:
			slices.SortFunc(out[lo:hi], matchCmp)
		default:
			slices.SortFunc(refs[lo:hi], refCmp)
		}
		lo = hi
	}
}

// hitRef is a hit as the forecast fold orders it: where the hit lies
// (its worker, its index in that worker's hits, fut and disp) and its
// stream's relation to the query.
type hitRef struct {
	wk, i int32
	rel   SourceRelation
}

// refKey is what matchCmp reads of the hit r refers to.
func refKey(workers []*workerState, streams []*store.Stream, r hitRef) Match {
	h := workers[r.wk].hits[r.i]
	return Match{Stream: streams[h.ord], Start: int(h.start), Distance: h.dist, ord: h.ord}
}

// hitCount is the number of hits the workers hold.
func hitCount(workers []*workerState) (n int) {
	for _, w := range workers {
		n += len(w.hits)
	}
	return n
}

// rank turns the workers' hits into a threshold search's result, each
// Match built once, in its place.
func (m *Matcher) rank(pl *queryPlan, workers []*workerState, streams []*store.Stream) []Match {
	out := make([]Match, hitCount(workers))
	m.order(pl, workers, streams, out, nil)
	return out
}
