package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// Query is a query subsequence together with its provenance, which
// determines the source-stream weight of every candidate and which
// windows must be excluded as "the query itself".
type Query struct {
	Seq plr.Sequence
	// PatientID and SessionID identify the stream the query was taken
	// from. They may be empty for ad-hoc queries, in which case every
	// candidate is treated as other-patient.
	PatientID string
	SessionID string
	// Now is the current time of the online application — normally
	// the time of the query's last vertex. Candidates from the query's
	// own stream are only admitted if they end strictly before the
	// query begins (their "future" must already be history).
	Now float64
}

// NewQuery builds a Query from the trailing subsequence of a stream.
func NewQuery(seq plr.Sequence, patientID, sessionID string) Query {
	q := Query{Seq: seq, PatientID: patientID, SessionID: sessionID}
	if len(seq) > 0 {
		q.Now = seq[len(seq)-1].T
	}
	return q
}

// Match is one retrieved similar subsequence.
type Match struct {
	Stream   *store.Stream
	Start    int // index of the window's first vertex
	N        int // window length in vertices
	Relation SourceRelation
	// ord is the candidate stream's position in the search's stream
	// list: the final tie-break of the result order, making output
	// deterministic even for byte-identical streams registered under
	// the same patient and session IDs. It shares Relation's word.
	ord      int32
	Distance float64
	// Weight is the subsequence weight w'_j used by prediction:
	// the source-stream trust scaled by closeness, w_s / (1 + D).
	Weight float64
}

// Window returns a copy of the matched subsequence.
func (m Match) Window() plr.Sequence { return m.Stream.Window(m.Start, m.N) }

// EndTime returns the time of the window's final vertex.
func (m Match) EndTime() float64 {
	ts, _, _ := m.Stream.Track()
	return ts[m.Start+m.N-1]
}

// matchCmp is the total result order: ascending distance, then
// (patient, session, start, stream ordinal). The deterministic suffix
// keys break distance ties — the sort is unstable, so ordering by
// distance alone would make equal-distance results flap between runs
// (and between sequential and parallel scans), breaking the gateway's
// byte-identical exact-merge guarantee. The same key is used by the
// sharding gateway's merge (internal/shard).
func matchCmp(a, b Match) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	if c := strings.Compare(a.Stream.PatientID, b.Stream.PatientID); c != 0 {
		return c
	}
	if c := strings.Compare(a.Stream.SessionID, b.Stream.SessionID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.ord, b.ord)
}

func matchLess(a, b Match) bool { return matchCmp(a, b) < 0 }

// Matcher runs similarity search over a stream database.
type Matcher struct {
	DB     *store.DB
	Params Params

	// Deprecated: ignored. Every search scans each stream's postings;
	// the field stays only because the benchmark module assigns it.
	Index any

	// scratch reused across searches (a Matcher is not safe for
	// concurrent use; create one per goroutine). Each search worker
	// goroutine owns one workerState; the slice grows to the effective
	// parallelism and is reused across searches.
	plan    queryPlan // the running search's, a field so that no search allocates one
	buf     []float64 // the plan's vertex weights and query segments
	streams []*store.Stream
	rels    []SourceRelation // a search's relations by stream ordinal, plus one; 0 until read
	workers []*workerState
	buckets []int32    // order's bucket table
	fc      forecast   // both prediction doors' fold
	answers answers    // the recent unrestricted answers
	tracks  []trackRow // a prediction's columns by stream ordinal
	call    uint64     // the predictions, telling tracks' rows apart
}

// workerState is one funnel worker's private output: the hits it
// accepted in threshold mode plus its stage counts and clocks, kept
// worker-local so the hot loop never contends on shared counters.
type workerState struct {
	hits []hit
	// The least and greatest distance among hits, what order scales its
	// buckets to; meaningful once counts.Matched > 0.
	dmin, dmax float64
	counts     FunnelCounts
	stage      stageNS
	mark       time.Time // the previous lap's clock reading
	// The pass buffers lent to each candidate set (candidateSet.starts).
	starts []int32
	lbs    []float64
}

// passBlock is how many windows a search worker takes through the funnel
// passes at a time: a block's buffers (3 KB) stay in L1.
const passBlock = 256

// stageNS accumulates per-funnel-stage wall time (nanoseconds). Only
// populated when the search is traced (queryPlan.timed): the clock is
// read once per pass of a stream, never per candidate, and untraced
// searches do not read it at all.
type stageNS struct {
	stateOrder int64 // view, postings walk, state check, self-exclusion
	lb         int64 // O(1) lower-bound evaluations
	dist       int64 // bounded exact distance computations
}

// now is the stage clock; the clock-read test counts its calls.
var now = time.Now

// lap, in a traced search, reads the clock and adds the time since the
// worker's previous lap to acc (nil just starts a lap).
func (w *workerState) lap(pl *queryPlan, acc *int64) {
	if !pl.timed {
		return
	}
	t := now()
	if acc != nil {
		*acc += int64(t.Sub(w.mark))
	}
	w.mark = t
}

// FunnelCounts is the pruning-funnel breakdown of one funnel run (a
// search, or one standing-query evaluation). The fields after Windows
// partition the windows considered exactly:
//
//	Windows = StateRejected + SelfExcluded + LBPruned + DistRejected + Matched
//
// which is the identity the funnel spans, the subscribe.eval span and
// the stsmatch_matcher_* counters are all derived from.
type FunnelCounts struct {
	// Windows is every window of the query's length the candidate
	// source ranged over.
	Windows int
	// StateRejected windows never reached the later stages: their state
	// order differs from the query's.
	StateRejected int
	SelfExcluded  int // overlap the query's own present
	LBPruned      int // failed the O(1) prefix-sum lower bound
	// DistRejected windows exceeded the acceptance bound after (possibly
	// abandoned) exact evaluation, or were displaced from a top-k result.
	DistRejected int
	Matched      int
}

// Add accumulates another run's counts.
func (c *FunnelCounts) Add(o FunnelCounts) {
	c.Windows += o.Windows
	c.StateRejected += o.StateRejected
	c.SelfExcluded += o.SelfExcluded
	c.LBPruned += o.LBPruned
	c.DistRejected += o.DistRejected
	c.Matched += o.Matched
}

// Scanned is the number of windows that passed the state-order filter
// and entered the per-candidate stages (candidates_scanned).
func (c FunnelCounts) Scanned() int { return c.Windows - c.StateRejected }

// drainWorkers sums and resets the workers' counts, clocks and hit
// buffers. Workers are reused across searches, so this is the one place
// their state is cleared.
func drainWorkers(workers []*workerState) (c FunnelCounts, sg stageNS) {
	for _, w := range workers {
		c.Add(w.counts)
		sg.stateOrder += w.stage.stateOrder
		sg.lb += w.stage.lb
		sg.dist += w.stage.dist
		*w = workerState{hits: w.hits[:0], starts: w.starts, lbs: w.lbs}
	}
	return c, sg
}

// NewMatcher builds a matcher; it returns an error for invalid
// parameters.
func NewMatcher(db *store.DB, p Params) (*Matcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	return &Matcher{DB: db, Params: p}, nil
}

// relationOf classifies a candidate stream relative to the query.
func relationOf(q Query, st *store.Stream) SourceRelation {
	switch {
	case q.PatientID == st.PatientID && q.SessionID == st.SessionID:
		return SameSession
	case q.PatientID == st.PatientID:
		return SamePatient
	default:
		return OtherPatient
	}
}

// relation is the ord-th stream's relation to the running search's
// query, worked out once a search.
func (m *Matcher) relation(ord int32) SourceRelation {
	if m.rels[ord] == 0 {
		m.rels[ord] = relationOf(m.plan.q, m.streams[ord]) + 1
	}
	return m.rels[ord] - 1
}

// FindSimilar retrieves every stored subsequence similar to the query
// under Definition 2: same state order, weighted distance within the
// threshold. Results are sorted by ascending distance (ties broken by
// patient, session, start).
//
// restrict, when non-nil, limits the search to streams of the listed
// patients (the cluster-restricted search of Section 5.3); keys are
// patient IDs.
//
// The result is shared with the matcher and read-only: a caller that
// edits it clones it first. An unrestricted search keeps the list it
// returns, and the same search asked again with no new hit returns that
// list again, allocating nothing. The matcher never writes into a list
// it has returned, so a list stays as it was through later calls and
// may be read while the matcher serves another search.
func (m *Matcher) FindSimilar(q Query, restrict map[string]bool) ([]Match, error) {
	return m.FindSimilarCtx(context.Background(), q, restrict)
}

// FindSimilarCtx is FindSimilar with a context: when the context
// carries a trace span (obs.StartSpan), the search emits a
// "matcher.search" child span plus per-funnel-stage spans carrying
// stage wall time and candidate counts. Untraced contexts behave
// exactly like FindSimilar. Its result is shared and read-only, as
// FindSimilar's.
func (m *Matcher) FindSimilarCtx(ctx context.Context, q Query, restrict map[string]bool) ([]Match, error) {
	return m.search(ctx, q, restrict, 0, m.Params.DistThreshold, nil)
}

// TopK retrieves the k nearest stored subsequences with the query's
// state order, regardless of the distance threshold. (Definition 3's
// top-h within one stream is OfflineSearch.TopH.) Each call returns a
// new list, the caller's own.
//
// The threshold is ignored by plumbing an infinite bound through the
// search rather than by mutating m.Params, so an error or panic
// mid-search can never leak an infinite threshold into later calls.
func (m *Matcher) TopK(q Query, k int, restrict map[string]bool) ([]Match, error) {
	return m.TopKCtx(context.Background(), q, k, restrict)
}

// TopKCtx is TopK with trace-context support (see FindSimilarCtx).
func (m *Matcher) TopKCtx(ctx context.Context, q Query, k int, restrict map[string]bool) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: TopK needs k > 0, got %d", k)
	}
	return m.search(ctx, q, restrict, k, inf, nil)
}

// queryPlan is everything about one query that is fixed while it runs:
// the query, its precomputed aggregates and weights, the acceptance
// threshold and — for a top-k search — the shared collector. Only
// newQueryPlan builds one; search attaches its collector and trace flag
// before any worker sees the plan, and from then on it is read-only
// (the collector synchronises itself). search builds one per call, an
// OfflineSearch one per query window, a StandingQuery keeps one for life.
type queryPlan struct {
	q         Query
	scanSig   string // what scans filter by: the query's state signature, "" when ablated
	n         int
	vw        []float64  // per-segment vertex weights
	qseg      []float64  // per-segment durations and displacements (querySegments)
	wsum      float64    // Σ vw
	vwMin     float64    // min vw — the lower-bound weight floor
	ampQ      float64    // Σ per-segment displacement norms of the query
	durQ      float64    // query duration
	wa, wf    float64    // amplitude / frequency weights
	ws        [3]float64 // stream weight by SourceRelation
	threshold float64
	// col, when non-nil, is the top-k collector whose tightening bound
	// replaces the threshold; nil keeps every match within threshold in
	// the worker-local buffers.
	col *collector
	// lens, when non-nil, is an unrestricted search's kept answer: per stream
	// ordinal, the length up to which the answer holds the stream's
	// windows. Workers range only over the windows ending past it, and
	// leave the length they ranked up to.
	lens []int32
	// timed is set when the search runs under a trace span: workers
	// then accumulate per-stage wall time.
	timed bool
}

// newQueryPlan computes the query-side funnel aggregates. sig is
// q.Seq.StateSignature(), a parameter so that a caller ranging over one
// stream's windows can slice it from that stream's state string. buf is an
// optional scratch buffer for the vertex weights and query segments.
func newQueryPlan(p Params, q Query, sig string, threshold float64, buf []float64) (queryPlan, error) {
	if len(q.Seq) < 2 {
		return queryPlan{}, ErrTooShort
	}
	segs := len(q.Seq) - 1
	if need := segs * (q.Seq.Dims() + 2); cap(buf) < need {
		buf = make([]float64, need)
	}
	pl := queryPlan{
		q:         q,
		n:         len(q.Seq),
		vw:        p.VertexWeights(buf[:0], len(q.Seq)),
		qseg:      querySegments(buf[segs:cap(buf)], q.Seq),
		ampQ:      dispNormSum(q.Seq),
		durQ:      q.Seq.Duration(),
		threshold: threshold,
	}
	if p.RequireStateOrder {
		pl.scanSig = sig
	}
	pl.wsum, pl.vwMin = sumMin(pl.vw)
	pl.wa, pl.wf = p.ampFreqWeights()
	pl.ws = streamWeights(p)
	return pl, nil
}

// streamWeights is w_s by SourceRelation.
func streamWeights(p Params) (ws [3]float64) {
	for rel := range ws {
		ws[rel] = p.StreamWeight(SourceRelation(rel))
	}
	return ws
}

// search is the unified retrieval core behind FindSimilar (k == 0),
// TopK (threshold == inf) and, with a forecast fc (k == 0; the result
// is then in fc, not returned), PredictDisplacementCtx. Candidate
// streams are partitioned dynamically across Params.Parallelism
// workers; every candidate goes through queryPlan.run, and partial
// results merge into the matchLess total order, so the output is
// byte-identical at every parallelism setting.
//
// An unrestricted search keeps its answer (answers) and, asked again over
// the same stream list, is repaired: the funnel then runs over the
// windows appended since. Each stream's length is read once, when the
// stream is fed, so an append racing the search lands in the next one.
func (m *Matcher) search(ctx context.Context, q Query, restrict map[string]bool, k int, threshold float64, fc *forecast) ([]Match, error) {
	start := time.Now()
	streams := m.DB.AppendStreams(m.streams[:0])
	if restrict != nil {
		in := streams[:0]
		for _, st := range streams {
			if restrict[st.PatientID] {
				in = append(in, st)
			}
		}
		streams = in
	}
	m.streams = streams
	m.rels = slices.Grow(m.rels[:0], len(streams))[:len(streams)]
	clear(m.rels)

	var ans *answer
	repaired := false
	if restrict == nil {
		ans, repaired = m.answers.open(m.DB, m.Params, threshold, k, q, streams)
	}
	// The key fixes the plan, so a kept answer keeps the one it was made
	// with, over the key's copy of the query (the query but for Now, which
	// the funnel does not read), and a repair plans nothing.
	var err error
	pl := &m.plan
	switch {
	case repaired:
		*pl = ans.plan
	case ans != nil:
		ans.plan, err = newQueryPlan(m.Params, ans.q, ans.q.Seq.StateSignature(), threshold, ans.plan.vw)
		*pl = ans.plan
	default:
		*pl, err = newQueryPlan(m.Params, q, q.Seq.StateSignature(), threshold, m.buf)
		m.buf = pl.vw // the (possibly regrown) scratch, by its full capacity
	}
	if err != nil {
		return nil, err
	}
	mQueryLen.Observe(float64(pl.n))

	// When the caller's context carries a trace, the whole search runs
	// as one child span and the funnel stages report their aggregate
	// wall time (summed across workers, so stage durations can exceed
	// the span's wall-clock duration at parallelism > 1).
	ctx, span := obs.StartSpan(ctx, "matcher.search")
	defer span.Finish()
	pl.timed = span != nil
	if ans != nil {
		pl.lens = ans.lens
	}
	if k > 0 {
		pl.col = newCollector(k)
		if ans != nil {
			pl.col.seed(m, pl, streams, ans.hits)
		}
	}
	// A repair ranges over a few appended windows: no fan-out.
	par := 1
	if !repaired {
		par = m.fanOut(streams)
	}
	for len(m.workers) < par {
		m.workers = append(m.workers, &workerState{starts: make([]int32, passBlock), lbs: make([]float64, passBlock)})
	}
	active := m.workers[:par]

	// Publish the funnel counts and clear the reused workers whatever
	// happens: after a clean search the workers are already drained and
	// this adds nothing; after a panic it keeps stale matches and counts
	// out of the next search.
	var counts FunnelCounts
	defer func() {
		left, _ := drainWorkers(active)
		counts.Add(left)
		counts.record()
	}()

	pl.dispatch(active, streams)

	// Merge: top-k mode drains the shared heap; a threshold repair merges
	// the new hits into the kept ones, and a full threshold search places
	// the workers' hits in order, as the hits a forecast folds or as
	// Matches. Either way the matchCmp total order fully determines the
	// output, so worker scheduling cannot affect it.
	var mergeStart time.Time // the merge's clock, read in a traced search only
	if pl.timed {
		mergeStart = time.Now()
	}
	var out []Match
	switch {
	case pl.col != nil:
		out = pl.col.heap
		slices.SortFunc(out, matchCmp)
	case repaired:
		m.answers.repair(streams, active[0].hits) // a repair runs on one worker
	case fc != nil:
		n := hitCount(active)
		ans.hits = slices.Grow(ans.hits[:0], n)[:n]
		m.order(pl, active, streams, nil, ans.hits)
	default:
		out = m.rank(pl, active, streams)
	}
	switch {
	case fc != nil:
		fc.fold(m, nil, pl.q.Seq.Dims(), nil, ans.hits, ans.lens)
	case repaired && k == 0:
		as := &m.answers
		if as.list == nil {
			as.list = make([]Match, len(ans.hits))
			for i, h := range ans.hits {
				as.list[i] = pl.match(streams[h.ord], m.relation(h.ord), h)
			}
		}
		out = as.list
	case ans != nil:
		ans.keep(out)
		if k == 0 {
			m.answers.list = out
		}
	}
	var mergeDur time.Duration
	if pl.timed {
		mergeDur = time.Since(mergeStart)
	}

	var sg stageNS
	counts, sg = drainWorkers(active)
	// A threshold answer served with no window to range over is reused;
	// every other answer from a kept one is repaired.
	reused := repaired && k == 0 && counts.Windows == 0
	if ans != nil {
		// A repair considered the kept answer's windows too (zero counts
		// for a full search).
		counts.Add(ans.counts)
	}
	if pl.col != nil {
		// A top-k match displaced from the heap by a better one was
		// rejected by the adaptive bound after all.
		counts.DistRejected += counts.Matched - len(out)
		counts.Matched = len(out)
	}
	if ans != nil {
		m.answers.done(ans, counts)
	}
	switch {
	case reused:
		mReused.Inc()
	case repaired:
		mRepaired.Inc()
	}
	mSearchSeconds.Observe(time.Since(start).Seconds())

	if span != nil {
		obs.AddSpan(ctx, "funnel.state_order", start, time.Duration(sg.stateOrder), map[string]any{
			"candidates": counts.Scanned(), "indexPruned": counts.StateRejected})
		obs.AddSpan(ctx, "funnel.self_exclusion", start, 0, map[string]any{
			"selfExcluded": counts.SelfExcluded})
		obs.AddSpan(ctx, "funnel.lb_prune", start, time.Duration(sg.lb), map[string]any{
			"lbPruned": counts.LBPruned})
		obs.AddSpan(ctx, "funnel.exact_distance", start, time.Duration(sg.dist), map[string]any{
			"distRejected": counts.DistRejected})
		obs.AddSpan(ctx, "funnel.topk_merge", mergeStart, mergeDur, map[string]any{
			"matched": counts.Matched})
		span.Annotate("reused", reused)
		span.Annotate("repaired", repaired && !reused)
		span.Annotate("streams", len(streams))
		span.Annotate("parallelism", par)
		span.Annotate("k", k)
		span.Annotate("queryLen", pl.n)
		span.Annotate("matches", counts.Matched)
	}
	return out, nil
}

// fanOutMinVertices is the corpus size below which a search stays on the
// calling goroutine whatever Params.Parallelism allows: starting and
// joining workers costs more than scanning some 13k vertices (the
// measured ladder is in DESIGN §10). A variable so that tests can drive
// the parallel path over small fixtures.
var fanOutMinVertices = 16384

// fanOut resolves the worker count for a search over streams.
func (m *Matcher) fanOut(streams []*store.Stream) int {
	par := m.Params.parallelism(len(streams))
	for total, i := 0, 0; par > 1 && i < len(streams); i++ {
		if total += streams[i].Len(); total >= fanOutMinVertices {
			return par
		}
	}
	return 1
}

// dispatch feeds every stream through the funnel. With more than one
// worker and stream it fans the streams across worker goroutines
// pulling indices off a shared atomic cursor (dynamic load balancing —
// heavy streams do not serialize behind a static partition); a worker
// panic stops the fan-out and is re-raised on the caller's goroutine
// instead of crashing the process.
func (pl *queryPlan) dispatch(workers []*workerState, streams []*store.Stream) {
	if len(workers) == 1 || len(streams) <= 1 {
		for ord, st := range streams {
			pl.feed(workers[0], st, ord)
		}
		return
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		panicked any
		wg       sync.WaitGroup
	)
	for _, w := range workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					stop.Store(true)
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(streams) {
					return
				}
				pl.feed(w, streams[i], i)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// feed builds the candidate set of stream st, the search's ord-th, over
// a fresh view of it and runs the funnel over it.
func (pl *queryPlan) feed(w *workerState, st *store.Stream, ord int) {
	w.lap(pl, nil)
	// A kept answer holds every window ending before seen.
	var seen int
	if pl.lens != nil {
		if seen = int(pl.lens[ord]); seen > 0 && st.Len() == seen {
			return
		}
	}
	// An indexed stream's postings for the signature's first gram,
	// consumed in place; every start of an unindexed one, or of any
	// stream in ablation mode.
	c := candidateSet{view: st.ScanView(pl.scanSig), lo: seen - pl.n + 1, sig: pl.scanSig, starts: w.starts, lbs: w.lbs}
	c.hi = c.view.Len()
	if pl.lens != nil {
		pl.lens[ord] = int32(c.hi)
	}
	rel := relationOf(pl.q, st)
	c.excludePresent(pl, rel)
	w.hits = pl.run(w, st, rel, ord, &c, w.hits)
}

// candidateSet names the windows of one stream view that a funnel run
// considers: the view's windows (store.ScanView.AppendWindows) with
// starts in [lo, hi) and state signature sig. An empty sig takes every
// one — the ablation.
type candidateSet struct {
	view   store.ScanView
	lo, hi int
	sig    string
	// Self-exclusion, stated on window starts: a window of the query's
	// state order that starts in [exLo, exHi) is the query itself or
	// overlaps it, and is counted out, not scored. No start of [lo, hi) is
	// in it for a stream that is not the query's own.
	exLo, exHi int
	// Pass buffers, equally long: a block's surviving window starts and,
	// from pass 2 on, their lower bounds. They are the search worker's,
	// lent for the run; a standing evaluation brings its own.
	starts []int32
	lbs    []float64
}

// excludePresent is the online self-exclusion rule: in a stream of the
// query's own session a candidate must end strictly before the query
// begins (its "future" must already be history). Times ascend strictly,
// so the windows that do not are a suffix of the starts: one binary search.
func (c *candidateSet) excludePresent(pl *queryPlan, rel SourceRelation) {
	if rel == SameSession {
		c.exLo, c.exHi = sort.SearchFloat64s(c.view.T, pl.q.Seq[0].T)-(pl.n-1), c.view.Len()
	}
}

// run is the candidate funnel — the only code that applies
//
//	state-order check -> self-exclusion -> O(1) lower bound
//	  -> bounded exact distance -> threshold / adaptive top-k
//
// to a window of stream st, which stands in relation rel to the query.
// Scan, ablation, standing evaluation and offline top-h differ only in
// the candidate set they hand it, which is what keeps their results
// byte-identical. An accepted window goes to the plan's
// collector (top-k) or, as a hit, onto hits, the caller's buffer, which
// run returns (a parameter, not a field of w, so that a standing
// evaluation's can stay on its stack); every window the set ranges over
// lands in exactly one FunnelCounts bucket.
//
// The windows go through the stages a block at a time, as many as the
// worker's pass buffers hold, so that each stage is a tight loop over
// one kind of memory and is clocked per block, never per window.
func (pl *queryPlan) run(w *workerState, st *store.Stream, rel SourceRelation, ord int, c *candidateSet, hits []hit) []hit {
	ts, pos, amps, n, dims := c.view.T, c.view.Pos, c.view.Amps, pl.n, c.view.Dims
	lo, hi := max(c.lo, 0), min(c.hi, len(ts)-n+1)
	// A stream of another dimensionality than the query's holds nothing
	// comparable with it.
	if lo >= hi || dims != pl.q.Seq.Dims() {
		return hits
	}
	w.counts.Windows += hi - lo
	ws, stageA := pl.ws[rel], pl.ampBound(rel)
	exLo, exHi := max(c.exLo, lo), min(c.exHi, hi)
	for lo < hi {
		// Pass 1 — state order: the store's walk over postings or state
		// string. Whatever it skips fails condition 1.
		from := lo
		var starts []int32
		starts, lo = c.view.AppendWindows(c.starts[:0], c.sig, from, hi)
		w.counts.StateRejected += lo - from - len(starts)
		// Self-exclusion: the starts the candidate set's source rules out.
		if exLo < exHi {
			kept := starts[:0]
			for _, j := range starts {
				if int(j) >= exLo && int(j) < exHi {
					w.counts.SelfExcluded++
				} else {
					kept = append(kept, j)
				}
			}
			starts = kept
		}
		w.lap(pl, &w.stage.stateOrder)

		// Pass 2 — the O(1) lower bound, against the acceptance bound as it
		// stands on entering the block. Stage A reads the prefix-sum column
		// only and discards nearly everything the bound can; what it lets
		// through reads its two end times for the full bound, the value
		// pass 3 re-checks.
		bound, kept := pl.bound(), 0
		for _, j32 := range starts {
			j := int(j32)
			ampC := amps[j+n-1] - amps[j]
			if pl.lowerBoundAmp(stageA, ampC) > bound {
				w.counts.LBPruned++
				continue
			}
			lb := pl.lowerBound(ampC, ts[j+n-1]-ts[j], rel)
			if lb > bound {
				w.counts.LBPruned++
				continue
			}
			starts[kept], c.lbs[kept] = j32, lb
			kept++
		}
		starts = starts[:kept]
		w.lap(pl, &w.stage.lb)

		// Pass 3 — bounded exact distance for the survivors.
		for i, j32 := range starts {
			// The bound may have tightened since pass 2: a survivor it now
			// excludes is pruned as if the bound had been current all along.
			bound := pl.bound()
			if c.lbs[i] > bound {
				w.counts.LBPruned++
				continue
			}
			// Early abandonment: the acceptance bound caps the distance
			// computation on clearly-distant candidates. An infinite bound
			// (top-k mode before the heap fills) means exact distances are
			// needed.
			if bound >= inf {
				bound = 0
			}
			j := int(j32)
			d, within := weightedDistance(pl.qseg, ts[j:j+n], pos[j*dims:(j+n)*dims], pl.vw, pl.wa, pl.wf, ws, pl.wsum, bound)
			// Written so that a NaN distance (displacements that overflow:
			// Inf-Inf) is rejected too: every accepted distance is finite.
			if !within || !(d <= pl.threshold) {
				w.counts.DistRejected++
				continue
			}
			h := hit{dist: d, start: j32, ord: int32(ord)}
			switch {
			case pl.col == nil:
				hits = append(hits, h)
				if w.counts.Matched == 0 || d < w.dmin {
					w.dmin = d
				}
				w.dmax = max(w.dmax, d)
				w.counts.Matched++
			case pl.col.offer(pl.match(st, rel, h)):
				w.counts.Matched++
			default:
				w.counts.DistRejected++
			}
		}
		w.lap(pl, &w.stage.dist)
	}
	return hits
}

// match builds the result for a hit in stream st, which stands in
// relation rel to the query.
func (pl *queryPlan) match(st *store.Stream, rel SourceRelation, h hit) Match {
	return Match{
		Stream:   st,
		Start:    int(h.start),
		N:        pl.n,
		Relation: rel,
		Distance: h.dist,
		Weight:   pl.ws[rel] / (1 + h.dist),
		ord:      h.ord,
	}
}

// bound is the acceptance bound: the distance threshold, or in top-k
// mode the k-th best distance seen so far. It only ever shrinks, so
// rejecting against a stale (looser) load is always safe.
func (pl *queryPlan) bound() float64 {
	if pl.col != nil {
		return pl.col.bound()
	}
	return pl.threshold
}

// collector accumulates a top-k search's accepted matches: a bounded
// max-heap (ordered by matchLess) under a mutex, publishing the k-th
// best distance as a monotonically tightening atomic bound that
// workers feed back into the lower-bound filter and the distance
// early-abandonment.
type collector struct {
	k         int
	boundBits atomic.Uint64 // float64 bits of the current acceptance bound

	mu   sync.Mutex
	heap []Match // max-heap by matchLess; len <= k
}

// collectorPresize caps the heap a collector allocates up front: a
// client's k is not bounded, and a heap never outgrows the windows there
// are.
const collectorPresize = 4096

// newCollector makes a collector whose heap is allocated once, at k (up
// to collectorPresize) matches. The heap becomes the search's result, so
// each search allocates its own.
func newCollector(k int) *collector {
	c := &collector{k: k, heap: make([]Match, 0, min(k, collectorPresize))}
	c.reset()
	return c
}

// reset empties the heap and loosens the bound back to inf. Not safe
// while workers run.
func (c *collector) reset() {
	c.heap = c.heap[:0]
	c.boundBits.Store(math.Float64bits(inf))
}

// seed fills the empty heap with a kept answer's matches, hits in the
// result order over streams: reversed, they are a max-heap as they
// stand. Not safe while workers run.
func (c *collector) seed(m *Matcher, pl *queryPlan, streams []*store.Stream, hits []hit) {
	for i := len(hits) - 1; i >= 0; i-- {
		h := hits[i]
		c.heap = append(c.heap, pl.match(streams[h.ord], m.relation(h.ord), h))
	}
	if len(c.heap) == c.k {
		c.publish()
	}
}

// bound returns the current acceptance bound: no candidate with a
// distance strictly above it can enter the final result set.
func (c *collector) bound() float64 {
	return math.Float64frombits(c.boundBits.Load())
}

// offer submits an accepted candidate. It reports whether the match
// was retained; a candidate ordering after the current k-th best is
// dropped.
func (c *collector) offer(mt Match) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) < c.k {
		c.heap = append(c.heap, mt)
		siftUp(c.heap, len(c.heap)-1)
		if len(c.heap) == c.k {
			c.publish()
		}
		return true
	}
	if !matchLess(mt, c.heap[0]) {
		return false
	}
	c.heap[0] = mt
	siftDown(c.heap, 0)
	c.publish()
	return true
}

// publish tightens the shared bound to the k-th best distance. Called
// with c.mu held and the heap full; the max-heap root carries the
// largest retained distance, which only shrinks as better matches
// displace it, so the published bound is monotone non-increasing — a
// worker reading a stale value merely prunes a little less.
func (c *collector) publish() {
	c.boundBits.Store(math.Float64bits(c.heap[0].Distance))
}

// siftUp restores the max-heap property (parent not matchLess than
// children) after appending at index i.
func siftUp(h []Match, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !matchLess(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the max-heap property after replacing the root.
func siftDown(h []Match, i int) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && matchLess(h[big], h[l]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && matchLess(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// dispNormSum returns the sum of per-segment displacement norms
// Σ|Pos[i+1]-Pos[i]| — the query-side aggregate of the O(1) lower
// bound (the stream side comes from store prefix sums).
func dispNormSum(seq plr.Sequence) float64 {
	var s float64
	for i := 0; i+1 < len(seq); i++ {
		s += plr.Dist(seq[i+1].Pos, seq[i].Pos)
	}
	return s
}

// sumMin returns the sum and minimum of a weight vector.
func sumMin(vw []float64) (sum, min float64) {
	min = math.Inf(1)
	for _, w := range vw {
		sum += w
		if w < min {
			min = w
		}
	}
	if len(vw) == 0 {
		min = 0
	}
	return sum, min
}

// inf is a practically infinite distance threshold.
const inf = 1e308
