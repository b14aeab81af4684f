package core

import (
	"math"
	"slices"

	"stsmatch/internal/store"
)

// hit is a window a funnel run accepted in threshold mode, as small as
// the result order needs it: Matches are built from hits once, in rank
// order, so nothing the size of a Match is ever sorted.
type hit struct {
	dist       float64
	start, ord int32 // window start; the stream's place in the search's stream list
}

// radixMin is the hit count from which rank orders by radix passes.
// Below it the passes' fixed cost (eight 256-counter histograms) exceeds
// a comparison sort of the built matches.
const radixMin = 48

// rank turns the workers' hits into a threshold search's result, in the
// matchCmp total order. The hits are ordered by distance alone — radix
// passes over 16-byte records, no comparator — each Match is built once,
// where it belongs, and matchCmp runs only inside runs of equal
// distance, which is where the rest of its key decides.
func (m *Matcher) rank(pl *queryPlan, workers []*workerState, streams []*store.Stream) []Match {
	hits := m.hits[:0]
	for _, w := range workers {
		hits = append(hits, w.hits...)
	}
	total := len(hits)
	hits = slices.Grow(hits, total) // room for the passes' other buffer
	m.hits = hits
	byDist := total >= radixMin
	if byDist {
		hits = sortHits(hits, hits[total:2*total])
	}
	out := make([]Match, total)
	for i, h := range hits {
		st := streams[h.ord]
		out[i] = pl.match(st, relationOf(pl.q, st), h)
	}
	// Unordered, the whole result is one run.
	for i := 0; i < total; {
		j := i + 1
		for j < total && (!byDist || out[j].Distance == out[i].Distance) {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(out[i:j], matchCmp)
		}
		i = j
	}
	return out
}

// sortHits orders a by ascending distance and returns the buffer the
// result is in: a or tmp, which must be as long. It is an LSD radix sort
// on math.Float64bits(dist), a byte per pass: an accepted distance is
// finite and not below +0 (run rejects NaN, every term of the distance
// sum is non-negative), and over those values the bit patterns order as
// the numbers do. A byte that is the same in every key needs no pass,
// and of a distance's eight, the top one or two usually are.
func sortHits(a, tmp []hit) []hit {
	if len(a) < 2 {
		return a
	}
	var count [8][256]int32
	for _, h := range a {
		k := math.Float64bits(h.dist)
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	for b := range count {
		shift := 8 * b
		if count[b][byte(math.Float64bits(a[0].dist)>>shift)] == int32(len(a)) {
			continue
		}
		c, pos := &count[b], int32(0)
		for d, n := range c {
			c[d], pos = pos, pos+n
		}
		for _, h := range a {
			d := byte(math.Float64bits(h.dist) >> shift)
			tmp[c[d]] = h
			c[d]++
		}
		a, tmp = tmp, a
	}
	return a
}
