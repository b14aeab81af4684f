package core

import (
	"math"
	"slices"

	"stsmatch/internal/store"
)

// hit is a window a funnel run accepted in threshold mode, as small as
// the result order needs it: Matches are built from hits once, where
// they belong in the result, so nothing the size of a Match is moved
// except inside a bucket that holds several.
type hit struct {
	dist       float64
	start, ord int32 // window start; the stream's place in the search's stream list
}

// bucketsPerHit sizes rank's bucket table: at four buckets a hit most
// matches are alone in theirs (measured at 1, 2, 4 and 8: DESIGN §10).
const bucketsPerHit = 4

// rank turns the workers' hits into a threshold search's result, in the
// matchCmp total order, by placement: the hits are counted into buckets
// that are monotone in distance — bucket (d-dmin)·scale over the range
// the workers observed, so no hit of a lower bucket has a larger
// distance than one of a higher bucket and equal distances share one —
// a prefix sum turns the counts into each bucket's place in the result,
// every Match is built once, at its bucket's cursor, and matchCmp runs
// only inside a bucket holding several. A range that does not scale
// (zero: all distances equal) is the one-bucket case, build and sort;
// no result is small enough for that to be the cheaper way (measured
// from two hits up: DESIGN §10).
func (m *Matcher) rank(pl *queryPlan, workers []*workerState, streams []*store.Stream) []Match {
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
	out := make([]Match, total)
	for _, w := range workers {
		// A worker's hits come a stream at a time.
		var st *store.Stream
		var rel SourceRelation
		ord := int32(-1)
		for _, h := range w.hits {
			if h.ord != ord {
				ord, st = h.ord, streams[h.ord]
				rel = relationOf(pl.q, st)
			}
			b := bucket(h.dist)
			out[at[b]] = pl.match(st, rel, h)
			at[b]++
		}
	}
	// Every cursor now stands at its bucket's end.
	lo := int32(0)
	for _, hi := range at {
		if hi-lo > 1 {
			slices.SortFunc(out[lo:hi], matchCmp)
		}
		lo = hi
	}
	return out
}
