package core

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"stsmatch/internal/store"
)

// answers are a matcher's recent unrestricted top-k answers. Stored
// windows never change (the database is append-only), so an answer
// stays exact for the windows it ranked: when the same top-k is asked
// again over the same stream list, the kept matches seed the collector
// and the funnel runs only over the windows that end in vertices
// appended since — each stream's candidate range starts where its length
// stood when the answer was made, as a standing query's EvalRange starts
// at its cursor. The result order is total (matchCmp), so the top k of
// the kept k and the new windows are, bit for bit, the top k of a search
// over everything.
//
// A repaired search records the kept answer's funnel counts plus the
// new windows' (matches displaced by the new ones move to DistRejected),
// so the stsmatch_matcher_* funnel series count what a fresh search
// would consider; stsmatch_matcher_repaired_total counts the repairs.
//
// Threshold and restricted searches neither read nor write them.
type answers struct {
	sums  []uint64 // each slot's answerSum, scanned before any key is compared
	slots []*answer
	tick  uint64 // the last use's stamp
}

// answerCap is how many top-k answers a matcher keeps, the least recently
// used one giving way. An LRU over a cycle of queries longer than itself
// hits nothing, so the capacity is the longest cycle of repeated top-k
// queries measured: the benchmark's query pool, 128 windows asked round
// after round (corpus_small repeats 81 % of its top-k queries, cluster's
// shards 52 % per client). A kept answer holds its query (about 500 B at
// 10 vertices of one dimension), k hits of 16 B and 4 B per listed
// stream: at 10 000 streams the streams dominate, 40 KB an answer and
// 5 MB a matcher.
const answerCap = 128

// answer is one kept top-k answer: its key, each listed stream's length
// when it was made, and its matches in the result order.
type answer struct {
	searchKey
	used   uint64  // the stamp of the last use; 0 while the slot holds no complete answer
	lens   []int32 // per listed stream, the vertices the answer ranked the windows of
	hits   []hit   // in matchCmp order; a hit's ord indexes the stream list
	counts FunnelCounts
}

// open returns the slot an unrestricted top-k search for q under p over
// db keeps its answer in, and whether the slot holds one to repair: the
// same search over the same stream list. The list only ever grows (the
// store never removes a stream), so a list as long as the answer's is
// the same list. Otherwise the slot is emptied for a full search, its
// lens zero. Either way it holds no complete answer until the search
// completes (done): a search that fails or panics leaves nothing.
func (as *answers) open(db *store.DB, p Params, k int, q Query, streams []*store.Stream) (*answer, bool) {
	sum := answerSum(q, k)
	a := as.find(sum, db, p, k, q)
	repair := a != nil && len(a.lens) == len(streams)
	if a == nil {
		a = as.take(sum)
		a.set(db, p, inf, k, q)
	}
	if !repair {
		a.lens = slices.Grow(a.lens[:0], len(streams))[:len(streams)]
		clear(a.lens)
		a.hits, a.counts = a.hits[:0], FunnelCounts{}
	}
	a.used = 0
	return a, repair
}

// find returns the slot holding the answer to the search, or nil.
func (as *answers) find(sum uint64, db *store.DB, p Params, k int, q Query) *answer {
	for i, s := range as.sums {
		if a := as.slots[i]; s == sum && a.used != 0 && a.is(db, p, inf, k, q) {
			return a
		}
	}
	return nil
}

// take returns a slot for a new answer: a new one while there is room,
// else the least recently used.
func (as *answers) take(sum uint64) *answer {
	if len(as.slots) < answerCap {
		a := new(answer)
		as.sums, as.slots = append(as.sums, sum), append(as.slots, a)
		return a
	}
	lru := 0
	for i, a := range as.slots {
		if a.used < as.slots[lru].used {
			lru = i
		}
	}
	as.sums[lru] = sum
	return as.slots[lru]
}

// done keeps the completed search's result and counts in a.
func (as *answers) done(a *answer, out []Match, counts FunnelCounts) {
	a.hits = keptHits(a.hits[:0], out, nil, nil)
	a.counts = counts
	as.tick++
	a.used = as.tick
}

var answerSeed = maphash.MakeSeed()

// answerSum digests what of a top-k search's key tells queries apart;
// equal sums are confirmed key by key (searchKey.is).
func answerSum(q Query, k int) uint64 {
	h := maphash.String(answerSeed, q.PatientID) ^ bits.RotateLeft64(maphash.String(answerSeed, q.SessionID), 1)
	mix := func(x uint64) { h = bits.RotateLeft64((h^x)*0x9e3779b97f4a7c15, 29) }
	mix(uint64(k))
	for _, v := range q.Seq {
		mix(math.Float64bits(v.T) ^ uint64(v.State))
		for _, x := range v.Pos {
			mix(math.Float64bits(x))
		}
	}
	return h
}
