package core

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"stsmatch/internal/store"
)

// answers are a matcher's kept unrestricted answers: the last threshold
// search's and the recent top-k searches'. Stored windows never change
// (the database is append-only), so an answer stays exact for the
// windows it ranked. Asked again over the same stream list, it is
// repaired: the funnel runs only over the windows ending in vertices
// appended since, each stream's range starting at its kept length, as a
// standing query's EvalRange starts at its cursor. The kept hits plus the
// new windows that pass the threshold, or the top k of the kept k and the
// new windows, are then bit for bit the fresh answer: the result order is
// total (matchCmp). With nothing appended a repair ranges over no window,
// which is how a prediction loop asking its dynamic query again between
// two vertex closes (Section 4.3) is answered.
//
// The threshold answer also keeps the []Match FindSimilar last returned,
// shared with its caller and never written into: a search that adds no
// hit returns it again; new hits, or another key or stream list at open,
// drop it for the next FindSimilar to build anew.
//
// A repair records the kept answer's funnel counts plus the new windows'
// (top-k matches displaced by new ones move to DistRejected), so the
// stsmatch_matcher_* funnel series count what a fresh search would.
// stsmatch_matcher_reused_total counts the threshold answers served with
// no window to range over, stsmatch_matcher_repaired_total every other
// answer served from a kept one. Restricted searches neither read nor
// write them.
type answers struct {
	last  answer   // the last threshold search's; each new one replaces it
	list  []Match  // last's hits as FindSimilar last returned them, len == cap; nil once they change
	fut   futures  // beside last's hits, their futures as last folded
	sums  []uint64 // each top-k slot's answerSum, scanned before any key is compared
	slots []*answer
	tick  uint64 // the last use's stamp
}

// answerCap is how many top-k answers a matcher keeps, the least recently
// used one giving way. An LRU over a cycle of queries longer than itself
// hits nothing, so the capacity is the longest cycle of repeated top-k
// queries measured: the benchmark's query pool, 128 windows asked round
// after round (corpus_small repeats 81 % of its top-k queries, cluster's
// shards 52 % per client). A kept answer holds its query and plan (about
// 1 KB at 10 vertices of one dimension), k hits of 16 B and 4 B per listed
// stream: at 10 000 streams the streams dominate, 40 KB an answer and
// 5 MB a matcher. The threshold answer has a slot of its own: among them
// a prediction would push that cycle past the capacity, and a dead
// prediction's thousands of hits would stay until evicted.
const answerCap = 128

// answer is one kept answer: its key and the plan made from it, each
// listed stream's length when it was made, and its hits in the result
// order. What only the threshold answer keeps beside (answers.list and
// answers.fut) is not in every top-k slot.
type answer struct {
	searchKey
	plan   queryPlan // its vertex weights and query segments in a buffer of its own
	used   uint64    // the stamp of the last use; 0 while the slot holds no complete answer
	lens   []int32   // per listed stream, the vertices the answer ranked the windows of
	hits   []hit     // in matchCmp order; a hit's ord indexes the stream list
	counts FunnelCounts
}

// searchKey is what a kept search was asked: the database, the
// parameters, the acceptance threshold (inf for a top-k search), k (0 for
// a threshold search) and the query, by value, but for its Now, which no
// stage of the funnel reads: two searches that differ only in Now have
// one answer.
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

// open returns the slot an unrestricted search for q under p over db
// with the threshold and k given keeps its answer in, and whether the
// slot holds one to repair: the same search over the same stream list.
// The list only ever grows (the store never removes a stream), so a list
// as long as the answer's is the same list. Otherwise the slot is emptied
// for a full search, its lens zero. Either way it holds no complete
// answer until the search completes (done): a search that fails or
// panics leaves nothing.
func (as *answers) open(db *store.DB, p Params, threshold float64, k int, q Query, streams []*store.Stream) (*answer, bool) {
	a, found := as.find(db, p, threshold, k, q)
	if !found {
		a.set(db, p, threshold, k, q)
	}
	repair := found && len(a.lens) == len(streams)
	if !repair {
		a.lens = slices.Grow(a.lens[:0], len(streams))[:len(streams)]
		clear(a.lens)
		a.hits, a.counts = a.hits[:0], FunnelCounts{}
		if k == 0 {
			as.list = nil
		}
	}
	a.used = 0
	return a, repair
}

// find returns the slot for the search and whether it holds the search's
// complete answer. A threshold search has the one threshold slot; a
// top-k search the slot holding its answer, or else a free or the least
// recently used one.
func (as *answers) find(db *store.DB, p Params, threshold float64, k int, q Query) (*answer, bool) {
	if k == 0 {
		a := &as.last
		return a, a.used != 0 && a.is(db, p, threshold, k, q)
	}
	sum := answerSum(q, k)
	for i, s := range as.sums {
		if a := as.slots[i]; s == sum && a.used != 0 && a.is(db, p, threshold, k, q) {
			return a, true
		}
	}
	if len(as.slots) < answerCap {
		a := new(answer)
		as.sums, as.slots = append(as.sums, sum), append(as.slots, a)
		return a, false
	}
	lru := 0
	for i, a := range as.slots {
		if a.used < as.slots[lru].used {
			lru = i
		}
	}
	as.sums[lru] = sum
	return as.slots[lru], false
}

// done marks a's answer complete, with the search's counts.
func (as *answers) done(a *answer, counts FunnelCounts) {
	a.counts = counts
	as.tick++
	a.used = as.tick
}

// keep makes a's hits those of the search's result out.
func (a *answer) keep(out []Match) {
	a.hits = slices.Grow(a.hits[:0], len(out))
	for _, mt := range out {
		a.hits = append(a.hits, hit{dist: mt.Distance, start: int32(mt.Start), ord: mt.ord})
	}
}

// repair merges a threshold repair's new hits, sorted where they lie,
// into the kept ones from the back: a kept hit moves at most once, and
// its future's row, once folded, with it. New hits drop the kept list,
// never written into: its caller may still be reading it.
func (as *answers) repair(streams []*store.Stream, add []hit) {
	if len(add) == 0 {
		return
	}
	as.list = nil
	a := &as.last
	cmp := hitOrder(streams)
	slices.SortFunc(add, cmp)
	i := len(a.hits) - 1
	a.hits = slices.Grow(a.hits, len(add))[:len(a.hits)+len(add)]
	fu, d := &as.fut, as.fut.dims
	if len(fu.rows) > 0 {
		fu.grow(len(a.hits))
	}
	for at, j := len(a.hits)-1, len(add)-1; j >= 0; at-- {
		if i >= 0 && cmp(a.hits[i], add[j]) > 0 {
			if i < len(fu.rows) {
				fu.rows[at], fu.sts[at] = fu.rows[i], fu.sts[i]
				copy(fu.prods[at*d:(at+1)*d], fu.prods[i*d:])
			}
			a.hits[at], i = a.hits[i], i-1
		} else {
			a.hits[at], j = add[j], j-1
		}
	}
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
