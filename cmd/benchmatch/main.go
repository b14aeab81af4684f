// Command benchmatch is the reproducible matcher/gateway benchmark
// runner: it builds a deterministic synthetic cohort, measures
// similarity-search latency and the full pruning-funnel counters for
// (a) a single-node matcher scanning sequentially, (b) the same
// matcher with stream-parallel search, and (c) a 3-shard deployment
// behind the consistent-hash gateway, and writes the results to
// BENCH_matcher.json so the perf trajectory of the matcher and the
// scatter-gather path is tracked in-repo.
//
//	benchmatch                       # defaults: 12 patients, k=10, 300 iters
//	benchmatch -patients 24 -iters 500 -out BENCH_matcher.json
//
// The cohort is seeded deterministically, so candidate counts and
// match sets are identical run to run; only wall-clock numbers vary
// with the hardware. The sequential and parallel scenarios are
// additionally asserted to return element-wise identical match lists
// (the determinism contract of core.Params.Parallelism). On a
// single-CPU runner the parallel scenario is skipped outright — a
// "speedup" there would only measure goroutine overhead — and the
// report carries cpus/gomaxprocs so readers can tell.
//
// With -clients N > 0 (default 8) the runner boots an R=2 replicated
// 3-shard cluster, ingests the cohort through the gateway, and
// hammers the same query with N concurrent workers in three modes —
// legacy primary-only scatter (max-lag 0), follower reads at a loose
// staleness bound, and gateway cache hits — reporting QPS and ns/op
// for each (concurrentLoad in the report). Every response in every
// mode is hard-asserted to carry the byte-identical match list of the
// primary-only merge, and the cache mode must actually serve from
// cache (verified against the hit counter).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// patientData is one synthetic patient's segmented stream.
type patientData struct {
	pid, sid string
	vertices plr.Sequence
}

// funnel is one scenario's per-query pruning-funnel averages, reading
// top to bottom: windows that passed the state-order filter reach
// candidatesScanned; the remaining layers each remove a slice before
// the next (lower bound before exact distance arithmetic).
type funnel struct {
	CandidatesScanned int `json:"candidatesScanned"`
	IndexPruned       int `json:"indexPruned"`
	SelfExcluded      int `json:"selfExcluded"`
	LBPruned          int `json:"lbPruned"`
	DistanceRejected  int `json:"distanceRejected"`
	Matched           int `json:"matched"`
}

// stagePct is one funnel stage's latency distribution in microseconds,
// sampled from the tracing spans over a separate instrumented loop (so
// the untraced nsPerOp stays comparable across report versions). Stage
// durations are summed across workers, so in the parallel scenario a
// stage can exceed the query's wall clock.
type stagePct struct {
	P50us float64 `json:"p50us"`
	P90us float64 `json:"p90us"`
	P99us float64 `json:"p99us"`
}

// scenarioResult is one benchmarked configuration.
type scenarioResult struct {
	NsPerOp     float64 `json:"nsPerOp"`
	Matches     int     `json:"matches"`
	Parallelism int     `json:"parallelism,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	Funnel      funnel  `json:"funnel"`

	// StageLatency maps span names (matcher.search, funnel.*) to
	// latency percentiles gathered from a traced measurement pass.
	StageLatency map[string]stagePct `json:"stageLatency,omitempty"`
}

// benchReport is the BENCH_matcher.json schema.
type benchReport struct {
	Patients   int     `json:"patients"`
	DurationS  float64 `json:"durationSeconds"`
	K          int     `json:"k"`
	Iters      int     `json:"iters"`
	QueryLen   int     `json:"queryLen"`
	CPUs       int     `json:"cpus"`
	GoMaxProcs int     `json:"gomaxprocs"`

	SingleNodeSequential scenarioResult `json:"singleNodeSequential"`
	// SingleNodeParallel is omitted on single-CPU runners, where a
	// "speedup" number would only measure goroutine overhead noise.
	SingleNodeParallel *scenarioResult `json:"singleNodeParallel,omitempty"`
	Sharded            scenarioResult  `json:"sharded"`

	// ParallelSpeedup is sequential ns/op over parallel ns/op,
	// reported only when the parallel scenario ran (>= 2 CPUs). The
	// >= 2x expectation applies to >= 4 core hardware.
	ParallelSpeedup float64 `json:"parallelSpeedup,omitempty"`

	// Concurrent is the multi-client read-path scenario: the same
	// deterministic top-k query hammered by N workers against an R=2
	// replicated 3-shard cluster, measured three ways — legacy
	// primary-only scatter (max-lag 0), follower reads at a loose
	// staleness bound (each patient arc pinned to one caught-up holder,
	// followers preferred), and gateway cache hits (zero backend
	// calls). Every response in all three modes is hard-asserted to
	// carry the byte-identical match list of the primary-only merge.
	Concurrent *concurrentResult `json:"concurrentLoad,omitempty"`

	// Rebalance is the elastic-scaling scenario (-rebalance): the same
	// replicated cluster grows from 3 to 4 backends under a live query
	// load, every ring-displaced session is drained onto the new node
	// via the live-migration protocol, and the deterministic top-k
	// query is measured before, during, and after the drain — every
	// response in all three windows byte-identical to the pre-drain
	// merge.
	Rebalance *rebalanceResult `json:"rebalance,omitempty"`

	// Standing measures the push path (internal/subscribe): the
	// incremental cost of evaluating a standing query per arriving
	// vertex, at growing corpus scales, against the cost of the
	// equivalent /v1/match poll. The sub-linearity claim reads off
	// CandidatesPerVertex: a standing query only examines the suffix
	// windows each append completes, so its per-vertex work stays flat
	// while a poll re-scans the (growing) corpus.
	StandingScale int                  `json:"standingScale,omitempty"`
	Standing      []standingScalePoint `json:"standing,omitempty"`
}

// concurrentResult is one run of the multi-client scenario. QPS is
// aggregate throughput across all workers; NsPerOp is the mean
// per-request wall latency one worker observed (elapsed / requests per
// worker), so under concurrency QPS * NsPerOp ≈ clients * 1e9.
type concurrentResult struct {
	Clients        int `json:"clients"`
	OpsPerScenario int `json:"opsPerScenario"`
	Shards         int `json:"shards"`
	Replicas       int `json:"replicas"`
	Matches        int `json:"matches"`

	PrimaryOnly  loadPoint `json:"primaryOnly"`
	FollowerRead loadPoint `json:"followerReads"`
	CacheHit     loadPoint `json:"cacheHit"`

	// PlannedPatientsPerQuery / FollowerServedPerQuery describe the
	// follower-read plan observed on the warmup query: how many patient
	// arcs were pinned to a single holder, and how many of those
	// holders were followers rather than primaries.
	PlannedPatientsPerQuery int `json:"plannedPatientsPerQuery"`
	FollowerServedPerQuery  int `json:"followerServedPerQuery"`

	// Speedups are QPS ratios over the primary-only baseline.
	FollowerReadSpeedup float64 `json:"followerReadSpeedup"`
	CacheHitSpeedup     float64 `json:"cacheHitSpeedup"`
}

// loadPoint is one load scenario's throughput and latency.
type loadPoint struct {
	QPS     float64 `json:"qps"`
	NsPerOp float64 `json:"nsPerOp"`
}

// rebalanceResult is one run of the elastic-scaling scenario: a 3-shard
// R=2 cluster grows a 4th backend and drains every ring-displaced
// session onto it while a client keeps querying. MatchNsDuring is the
// per-query latency observed while the drain was in flight — the
// scenario's headline is how little it deviates from Before/After,
// since queries never block on a migration (the source serves fenced
// reads until the cutover instant).
type rebalanceResult struct {
	Shards         int     `json:"shards"`
	Replicas       int     `json:"replicas"`
	SessionsMoved  int     `json:"sessionsMoved"`
	VerticesMoved  int     `json:"verticesMoved"`
	DrainSeconds   float64 `json:"drainSeconds"`
	SessionsPerSec float64 `json:"sessionsPerSecond"`

	MatchNsBefore float64 `json:"matchNsBefore"`
	MatchNsDuring float64 `json:"matchNsDuring"`
	MatchNsAfter  float64 `json:"matchNsAfter"`
	// QueriesDuring counts the queries that completed while the drain
	// was in flight (all byte-identical to the pre-drain merge).
	QueriesDuring int `json:"queriesDuring"`
}

// standingScalePoint is one corpus size in the standing-query
// scenario. NsPerVertex covers Stream.Append plus the subscription
// drain (the ingest-path overhead a standing query adds per vertex);
// PolledNsPerQuery is one full similarity search over the same final
// corpus — the cost a consumer would pay per poll to get the same
// events by diffing.
type standingScalePoint struct {
	Scale            int `json:"scale"`
	Streams          int `json:"streams"`
	Vertices         int `json:"vertices"`
	AppendedVertices int `json:"appendedVertices"`

	NsPerVertex         float64 `json:"nsPerVertex"`
	CandidatesPerVertex float64 `json:"candidatesPerVertex"`
	Events              int     `json:"events"`

	PolledNsPerQuery         float64 `json:"polledNsPerQuery"`
	PolledCandidatesPerQuery int     `json:"polledCandidatesPerQuery"`
}

func main() {
	out := flag.String("out", "BENCH_matcher.json", "output path for the benchmark report")
	patients := flag.Int("patients", 12, "synthetic patients in the cohort")
	duration := flag.Float64("duration", 180, "seconds of breathing data per patient")
	k := flag.Int("k", 10, "top-k for the benchmark queries")
	iters := flag.Int("iters", 300, "measured iterations per scenario")
	standingScale := flag.Int("standing-scale", 16,
		"largest corpus multiplier for the standing-query scenario (0 disables it)")
	clients := flag.Int("clients", 8,
		"concurrent workers in the multi-client read-path scenario (0 disables it)")
	rebalance := flag.Bool("rebalance", false,
		"run the elastic-scaling scenario: grow a replicated 3-shard cluster to 4 backends under live query load and drain displaced sessions via live migration")
	flag.Parse()

	obs.InitLogging(os.Stderr, slog.LevelWarn, false)

	data, err := buildCohort(*patients, *duration)
	if err != nil {
		fatal(err)
	}
	qseq := data[0].vertices
	if len(qseq) < 12 {
		fatal(fmt.Errorf("query stream too short: %d vertices", len(qseq)))
	}
	qseq = qseq[len(qseq)-10:]

	report := benchReport{
		Patients:   *patients,
		DurationS:  *duration,
		K:          *k,
		Iters:      *iters,
		QueryLen:   len(qseq),
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	db, err := loadDB(data)
	if err != nil {
		fatal(err)
	}
	var seqMatches []core.Match
	report.SingleNodeSequential, seqMatches, err = benchSingleNode(db, data, qseq, *k, *iters, 1)
	if err != nil {
		fatal(err)
	}
	if report.CPUs > 1 {
		par, parMatches, err := benchSingleNode(db, data, qseq, *k, *iters, 0)
		if err != nil {
			fatal(err)
		}
		if err := assertIdentical(seqMatches, parMatches); err != nil {
			fatal(fmt.Errorf("parallel search diverges from sequential: %w", err))
		}
		report.SingleNodeParallel = &par
		if par.NsPerOp > 0 {
			report.ParallelSpeedup = report.SingleNodeSequential.NsPerOp / par.NsPerOp
		}
	}

	report.Sharded, err = benchSharded(data, qseq, *k, *iters)
	if err != nil {
		fatal(err)
	}

	if report.SingleNodeSequential.Matches != report.Sharded.Matches {
		fatal(fmt.Errorf("sharded top-k (%d matches) disagrees with single node (%d): merge is broken",
			report.Sharded.Matches, report.SingleNodeSequential.Matches))
	}

	if *clients > 0 {
		cres, err := benchConcurrent(data, qseq, *k, *clients, *iters, *duration)
		if err != nil {
			fatal(err)
		}
		if cres.Matches != report.SingleNodeSequential.Matches {
			fatal(fmt.Errorf("replicated cluster top-k (%d matches) disagrees with single node (%d)",
				cres.Matches, report.SingleNodeSequential.Matches))
		}
		report.Concurrent = &cres
	}

	if *rebalance {
		rres, err := benchRebalance(data, qseq, *k, *iters, *duration)
		if err != nil {
			fatal(err)
		}
		report.Rebalance = &rres
	}

	if *standingScale > 0 {
		report.StandingScale = *standingScale
		for _, s := range scalePoints(*standingScale) {
			pt, err := benchStanding(*patients, *duration, s, len(qseq))
			if err != nil {
				fatal(err)
			}
			report.Standing = append(report.Standing, pt)
		}
		// The funnel is deterministic, so sub-linearity is a hard
		// assertion, not a wall-clock judgement call: the work a
		// standing query does per arriving vertex must not grow with
		// the corpus.
		first, last := report.Standing[0], report.Standing[len(report.Standing)-1]
		if first.CandidatesPerVertex > 0 && last.CandidatesPerVertex > 1.5*first.CandidatesPerVertex {
			fatal(fmt.Errorf("standing eval is not sub-linear in the corpus: %.1f candidates/vertex at 1x vs %.1f at %dx",
				first.CandidatesPerVertex, last.CandidatesPerVertex, last.Scale))
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	line := func(name string, r scenarioResult) {
		fmt.Printf("%-14s: %9.0f ns/op  funnel %d scanned / %d lb-pruned / %d dist-rejected -> %d matched\n",
			name, r.NsPerOp, r.Funnel.CandidatesScanned, r.Funnel.LBPruned, r.Funnel.DistanceRejected, r.Matches)
	}
	line("sequential", report.SingleNodeSequential)
	if report.SingleNodeParallel != nil {
		line("parallel", *report.SingleNodeParallel)
	}
	line("3-shard gw", report.Sharded)
	if c := report.Concurrent; c != nil {
		fmt.Printf("concurrent %dx: primary-only %7.0f qps, follower-reads %7.0f qps (%.2fx, %d/%d arcs on followers), cache-hit %7.0f qps / %8.0f ns/op (%.2fx)\n",
			c.Clients, c.PrimaryOnly.QPS, c.FollowerRead.QPS, c.FollowerReadSpeedup,
			c.FollowerServedPerQuery, c.PlannedPatientsPerQuery,
			c.CacheHit.QPS, c.CacheHit.NsPerOp, c.CacheHitSpeedup)
	}
	if r := report.Rebalance; r != nil {
		fmt.Printf("rebalance 3->4: %d sessions (%d vertices) drained in %.2fs (%.1f/s); match %8.0f -> %8.0f -> %8.0f ns/op (before/during/after, %d queries during)\n",
			r.SessionsMoved, r.VerticesMoved, r.DrainSeconds, r.SessionsPerSec,
			r.MatchNsBefore, r.MatchNsDuring, r.MatchNsAfter, r.QueriesDuring)
	}
	for _, pt := range report.Standing {
		fmt.Printf("standing %2dx: %9.0f ns/vertex (%5.1f candidates/vertex, %d events) vs poll %10.0f ns/query (%d candidates)\n",
			pt.Scale, pt.NsPerVertex, pt.CandidatesPerVertex, pt.Events,
			pt.PolledNsPerQuery, pt.PolledCandidatesPerQuery)
	}
	if report.SingleNodeParallel != nil {
		fmt.Printf("parallel speedup %.2fx on %d CPUs; wrote %s\n", report.ParallelSpeedup, report.CPUs, *out)
	} else {
		fmt.Printf("single CPU: parallel scenario skipped; wrote %s\n", *out)
	}
}

// scalePoints picks the corpus multipliers to measure: 1, sqrt(S)
// and S, deduplicated — three points are enough to see whether the
// work per arriving vertex grows with the corpus or stays flat.
func scalePoints(s int) []int {
	pts := []int{1}
	if mid := int(math.Round(math.Sqrt(float64(s)))); mid > 1 && mid < s {
		pts = append(pts, mid)
	}
	if s > 1 {
		pts = append(pts, s)
	}
	return pts
}

// assertIdentical checks the determinism contract: both runs returned
// the same matches in the same order with bit-identical distances.
func assertIdentical(a, b []core.Match) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d matches vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Stream != b[i].Stream || a[i].Start != b[i].Start || a[i].Distance != b[i].Distance {
			return fmt.Errorf("match %d: %s/%s#%d d=%v vs %s/%s#%d d=%v", i,
				a[i].Stream.PatientID, a[i].Stream.SessionID, a[i].Start, a[i].Distance,
				b[i].Stream.PatientID, b[i].Stream.SessionID, b[i].Start, b[i].Distance)
		}
	}
	return nil
}

// buildCohort segments deterministic respiration traces into PLR
// streams, one patient each.
func buildCohort(patients int, duration float64) ([]patientData, error) {
	var out []patientData
	for i := 0; i < patients; i++ {
		gen, err := signal.NewRespiration(signal.DefaultRespiration(), int64(100+i))
		if err != nil {
			return nil, err
		}
		seg, err := fsm.New(fsm.DefaultConfig())
		if err != nil {
			return nil, err
		}
		var seq plr.Sequence
		for _, s := range gen.Generate(duration) {
			vs, err := seg.Push(s)
			if err != nil {
				return nil, err
			}
			seq = append(seq, vs...)
		}
		out = append(out, patientData{
			pid:      fmt.Sprintf("P%02d", i),
			sid:      fmt.Sprintf("S-P%02d", i),
			vertices: seq,
		})
	}
	return out, nil
}

// loadDB builds a store database holding the given patients.
func loadDB(data []patientData) (*store.DB, error) {
	db := store.NewDB()
	for _, pd := range data {
		p, err := db.AddPatient(store.PatientInfo{ID: pd.pid})
		if err != nil {
			return nil, err
		}
		st := p.AddStream(pd.sid)
		if err := st.Append(pd.vertices...); err != nil {
			return nil, err
		}
	}
	db.EnableIndexes()
	return db, nil
}

// counters snapshots the matcher pruning-funnel totals.
func counters() funnel {
	var f funnel
	for _, p := range obs.Default().Gather() {
		switch p.Name {
		case "stsmatch_matcher_candidates_scanned_total":
			f.CandidatesScanned = int(p.Value)
		case "stsmatch_matcher_index_pruned_total":
			f.IndexPruned = int(p.Value)
		case "stsmatch_matcher_self_excluded_total":
			f.SelfExcluded = int(p.Value)
		case "stsmatch_matcher_lb_pruned_total":
			f.LBPruned = int(p.Value)
		case "stsmatch_matcher_distance_rejected_total":
			f.DistanceRejected = int(p.Value)
		case "stsmatch_matcher_matches_total":
			f.Matched = int(p.Value)
		}
	}
	return f
}

// perIter is the per-query funnel delta between two snapshots.
func perIter(before, after funnel, iters int) funnel {
	return funnel{
		CandidatesScanned: (after.CandidatesScanned - before.CandidatesScanned) / iters,
		IndexPruned:       (after.IndexPruned - before.IndexPruned) / iters,
		SelfExcluded:      (after.SelfExcluded - before.SelfExcluded) / iters,
		LBPruned:          (after.LBPruned - before.LBPruned) / iters,
		DistanceRejected:  (after.DistanceRejected - before.DistanceRejected) / iters,
		Matched:           (after.Matched - before.Matched) / iters,
	}
}

// tracedIters bounds the separate traced pass: enough samples for a
// stable p99 without doubling the benchmark's run time.
const tracedIters = 100

// stageSampler accumulates span durations by name and reduces them to
// percentiles.
type stageSampler map[string][]float64

func (ss stageSampler) addSpans(spans []obs.SpanData) {
	for _, sd := range spans {
		if sd.Name == "matcher.search" || strings.HasPrefix(sd.Name, "funnel.") || strings.HasPrefix(sd.Name, "index.") {
			ss[sd.Name] = append(ss[sd.Name], float64(sd.DurationNS)/1e3)
		}
	}
}

func (ss stageSampler) percentiles() map[string]stagePct {
	if len(ss) == 0 {
		return nil
	}
	out := make(map[string]stagePct, len(ss))
	for name, v := range ss {
		sort.Float64s(v)
		out[name] = stagePct{
			P50us: percentile(v, 0.50),
			P90us: percentile(v, 0.90),
			P99us: percentile(v, 0.99),
		}
	}
	return out
}

// percentile reads the nearest-rank percentile from a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// benchSingleNode measures the in-process matcher at the given
// parallelism (0 = GOMAXPROCS, 1 = sequential) and returns the match
// list for the determinism cross-check (both scenarios share db, so
// the lists are comparable by stream identity).
func benchSingleNode(db *store.DB, data []patientData, qseq plr.Sequence, k, iters, parallelism int) (scenarioResult, []core.Match, error) {
	params := core.DefaultParams()
	params.Parallelism = parallelism
	m, err := core.NewMatcher(db, params)
	if err != nil {
		return scenarioResult{}, nil, err
	}
	q := core.NewQuery(qseq, data[0].pid, data[0].sid)
	res, matches, err := benchMatcher(m, q, k, iters)
	if err != nil {
		return scenarioResult{}, nil, err
	}
	res.Parallelism = parallelism
	return res, matches, nil
}

// benchMatcher runs the warmup + timed + traced measurement protocol
// against an already-configured matcher.
func benchMatcher(m *core.Matcher, q core.Query, k, iters int) (scenarioResult, []core.Match, error) {
	// Warmup.
	matches, err := m.TopK(q, k, nil)
	if err != nil {
		return scenarioResult{}, nil, err
	}
	before := counters()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := m.TopK(q, k, nil); err != nil {
			return scenarioResult{}, nil, err
		}
	}
	elapsed := time.Since(start)
	res := scenarioResult{
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters),
		Matches: len(matches),
		Funnel:  perIter(before, counters(), iters),
	}

	// Separate traced pass: per-stage span durations feed the latency
	// percentiles without perturbing the untraced nsPerOp above.
	col := obs.NewCollector(tracedIters, time.Hour)
	samples := make(stageSampler)
	for i := 0; i < tracedIters; i++ {
		root := obs.StartTrace("bench.query", "bench", obs.SpanContext{}, col)
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := m.TopKCtx(ctx, q, k, nil); err != nil {
			return scenarioResult{}, nil, err
		}
		root.Finish()
	}
	for _, td := range col.Recent() {
		samples.addSpans(td.Spans)
	}
	res.StageLatency = samples.percentiles()
	return res, matches, nil
}

// sigMetric reads one unlabeled metric from the default registry.
func sigMetric(name string) float64 {
	for _, p := range obs.Default().Gather() {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// benchStanding measures the push path at one corpus scale: a
// standing query registered over the whole corpus, then 30 seconds of
// fresh signal appended to one stream vertex by vertex, draining the
// subscription after every append — the exact ingest-path sequence the
// server runs. The per-vertex cost is compared against one full
// similarity search over the same final corpus, which is what a
// consumer polling /v1/match would pay for the same events.
func benchStanding(basePatients int, duration float64, scale, qlen int) (standingScalePoint, error) {
	data, err := buildCohort(basePatients*scale, duration)
	if err != nil {
		return standingScalePoint{}, err
	}
	db, err := loadDB(data)
	if err != nil {
		return standingScalePoint{}, err
	}
	vertices := 0
	for _, pd := range data {
		vertices += len(pd.vertices)
	}

	// Continue patient 0's deterministic signal for 30 more seconds,
	// segmented by a replayed (primed) FSM so the continuation vertices
	// are exactly what live ingest would have produced.
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 100)
	if err != nil {
		return standingScalePoint{}, err
	}
	seg, err := fsm.New(fsm.DefaultConfig())
	if err != nil {
		return standingScalePoint{}, err
	}
	for _, s := range gen.Generate(duration) {
		if _, err := seg.Push(s); err != nil {
			return standingScalePoint{}, err
		}
	}
	var cont plr.Sequence
	for _, s := range gen.Generate(duration + 30) {
		vs, err := seg.Push(s)
		if err != nil {
			return standingScalePoint{}, err
		}
		cont = append(cont, vs...)
	}
	if len(cont) == 0 {
		return standingScalePoint{}, fmt.Errorf("scale %d: continuation produced no vertices", scale)
	}

	mgr := subscribe.NewManager(core.DefaultParams(), 0)
	db.AddMutationHook(mgr.OnMutation)
	qseq := data[0].vertices[len(data[0].vertices)-qlen:]
	sub := wal.SubState{ID: "bench", PatientID: data[0].pid, Pattern: qseq}
	if _, err := mgr.Register(&sub, db); err != nil {
		return standingScalePoint{}, err
	}
	st := db.Patient(data[0].pid).StreamBySession(data[0].sid)
	if st == nil {
		return standingScalePoint{}, fmt.Errorf("scale %d: stream %s not found", scale, data[0].sid)
	}

	ctx := context.Background()
	start := time.Now()
	for i := range cont {
		if err := st.Append(cont[i]); err != nil {
			return standingScalePoint{}, err
		}
		mgr.Drain(ctx, db)
	}
	elapsed := time.Since(start)
	status, ok := mgr.Get("bench")
	if !ok {
		return standingScalePoint{}, fmt.Errorf("scale %d: subscription vanished", scale)
	}
	pt := standingScalePoint{
		Scale:               scale,
		Streams:             len(data),
		Vertices:            vertices,
		AppendedVertices:    len(cont),
		NsPerVertex:         float64(elapsed.Nanoseconds()) / float64(len(cont)),
		CandidatesPerVertex: float64(status.Candidates) / float64(len(cont)),
		Events:              status.Matched,
	}

	// The polled equivalent over the final corpus, sequential so the
	// candidate count is not confounded by scheduling.
	params := core.DefaultParams()
	params.Parallelism = 1
	m, err := core.NewMatcher(db, params)
	if err != nil {
		return standingScalePoint{}, err
	}
	q := core.NewQuery(qseq, data[0].pid, "")
	const pollIters = 20
	if _, err := m.FindSimilar(q, nil); err != nil {
		return standingScalePoint{}, err
	}
	before := counters()
	pollStart := time.Now()
	for i := 0; i < pollIters; i++ {
		if _, err := m.FindSimilar(q, nil); err != nil {
			return standingScalePoint{}, err
		}
	}
	pt.PolledNsPerQuery = float64(time.Since(pollStart).Nanoseconds()) / pollIters
	pt.PolledCandidatesPerQuery = perIter(before, counters(), pollIters).CandidatesScanned
	return pt, nil
}

func benchSharded(data []patientData, qseq plr.Sequence, k, iters int) (scenarioResult, error) {
	// Three shards on loopback listeners.
	const shards = 3
	var urls []string
	var servers []*http.Server
	var listeners []net.Listener
	defer func() {
		for _, hs := range servers {
			hs.Close() //nolint:errcheck
		}
	}()
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return scenarioResult{}, err
		}
		listeners = append(listeners, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	// Partition patients exactly as the gateway's ring will.
	ring := shard.NewRing(shard.DefaultVnodes)
	for _, u := range urls {
		ring.Add(u)
	}
	parts := make(map[string][]patientData)
	for _, pd := range data {
		owner := ring.Owner(pd.pid)
		parts[owner] = append(parts[owner], pd)
	}
	for i, u := range urls {
		db, err := loadDB(parts[u])
		if err != nil {
			return scenarioResult{}, err
		}
		srv, err := server.New(db, core.DefaultParams(), fsm.DefaultConfig())
		if err != nil {
			return scenarioResult{}, err
		}
		hs := &http.Server{Handler: srv}
		servers = append(servers, hs)
		go hs.Serve(listeners[i]) //nolint:errcheck
	}

	// Cache disabled: this scenario tracks the scatter-merge path
	// itself, and a repeated identical query would otherwise be served
	// from the gateway result cache after the first iteration.
	gw, err := shard.NewGateway(urls, shard.Options{HealthInterval: -1, MatchCacheSize: -1})
	if err != nil {
		return scenarioResult{}, err
	}
	defer gw.Close()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return scenarioResult{}, err
	}
	ghs := &http.Server{Handler: gw}
	servers = append(servers, ghs)
	go ghs.Serve(gln) //nolint:errcheck
	gURL := "http://" + gln.Addr().String()

	body, err := json.Marshal(server.MatchRequest{
		Seq: qseq, PatientID: data[0].pid, SessionID: data[0].sid, K: k,
	})
	if err != nil {
		return scenarioResult{}, err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	callURL := func(u string) (shard.MatchResult, error) {
		resp, err := client.Post(u, "application/json", bytes.NewReader(body))
		if err != nil {
			return shard.MatchResult{}, err
		}
		defer resp.Body.Close()
		var res shard.MatchResult
		if resp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("gateway status %d", resp.StatusCode)
		}
		return res, json.NewDecoder(resp.Body).Decode(&res)
	}
	call := func() (shard.MatchResult, error) { return callURL(gURL + "/v1/match") }
	// Warmup (also establishes keep-alive connections).
	res, err := call()
	if err != nil {
		return scenarioResult{}, err
	}
	if res.Degraded || res.ShardsOK != shards {
		return scenarioResult{}, fmt.Errorf("sharded warmup degraded: %d/%d shards", res.ShardsOK, res.ShardsQueried)
	}
	before := counters()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := call(); err != nil {
			return scenarioResult{}, err
		}
	}
	elapsed := time.Since(start)
	out := scenarioResult{
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters),
		Matches: len(res.Matches),
		Shards:  shards,
		Funnel:  perIter(before, counters(), iters),
	}

	// Traced pass through the gateway: ?debug=profile returns the
	// merged span tree, so each shard's funnel stages contribute one
	// sample apiece per query.
	samples := make(stageSampler)
	for i := 0; i < tracedIters; i++ {
		pres, err := callURL(gURL + "/v1/match?debug=profile")
		if err != nil {
			return scenarioResult{}, err
		}
		if pres.Profile != nil && pres.Profile.Root != nil {
			samples.addSpans(pres.Profile.Root.Flatten())
		}
	}
	out.StageLatency = samples.percentiles()
	return out, nil
}

// benchConcurrent boots an R=2 replicated 3-shard cluster, ingests the
// cohort through the gateway (so every session has a WAL-following
// replica that is fully caught up when the acks return), and measures
// the same deterministic top-k query under `clients` concurrent
// workers in three modes: legacy primary-only scatter (max-lag 0),
// follower reads at a loose staleness bound, and gateway cache hits.
// Every response in every mode is checked against the primary-only
// merge's byte-identical match list — the scenario is a correctness
// gate as much as a throughput number.
func benchConcurrent(data []patientData, qseq plr.Sequence, k, clients, totalOps int, duration float64) (concurrentResult, error) {
	const shards = 3
	const replicas = 2
	var urls []string
	var servers []*http.Server
	var listeners []net.Listener
	defer func() {
		for _, hs := range servers {
			hs.Close() //nolint:errcheck
		}
	}()
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return concurrentResult{}, err
		}
		listeners = append(listeners, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i := range listeners {
		// Backends advertise their own URL so WAL shipments between them
		// carry real source identities.
		srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(),
			server.Options{AdvertiseURL: urls[i]})
		if err != nil {
			return concurrentResult{}, err
		}
		hs := &http.Server{Handler: srv}
		servers = append(servers, hs)
		go hs.Serve(listeners[i]) //nolint:errcheck
	}

	newGW := func(cacheSize int) (*shard.Gateway, string, error) {
		gw, err := shard.NewGateway(urls, shard.Options{
			Replicas:       replicas,
			HealthInterval: -1,
			// No background freshness poller: the benchmark's tracker
			// converges from ingest-ack piggybacks alone, keeping runs
			// deterministic.
			FreshnessInterval: -1,
			MatchCacheSize:    cacheSize,
		})
		if err != nil {
			return nil, "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			gw.Close()
			return nil, "", err
		}
		hs := &http.Server{Handler: gw}
		servers = append(servers, hs)
		go hs.Serve(ln) //nolint:errcheck
		return gw, "http://" + ln.Addr().String(), nil
	}
	// Two gateways over the same shards: the scatter modes run with the
	// cache disabled (every op must really execute the plan), the
	// cache-hit mode gets the default-sized cache.
	gw, gwURL, err := newGW(-1)
	if err != nil {
		return concurrentResult{}, err
	}
	defer gw.Close()
	gwc, gwcURL, err := newGW(0)
	if err != nil {
		return concurrentResult{}, err
	}
	defer gwc.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(url string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	for i, pd := range data {
		if err := post(gwURL+"/v1/sessions",
			server.CreateSessionRequest{PatientID: pd.pid, SessionID: pd.sid}); err != nil {
			return concurrentResult{}, err
		}
		// Replay the cohort's deterministic signal through the server's
		// own segmenter: the shards end up holding exactly the vertices
		// the single-node scenarios matched against.
		gen, err := signal.NewRespiration(signal.DefaultRespiration(), int64(100+i))
		if err != nil {
			return concurrentResult{}, err
		}
		samples := gen.Generate(duration)
		for off := 0; off < len(samples); off += 512 {
			end := min(off+512, len(samples))
			batch := make([]server.SampleIn, 0, end-off)
			for _, s := range samples[off:end] {
				batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
			}
			if err := post(gwURL+"/v1/sessions/"+pd.sid+"/samples", batch); err != nil {
				return concurrentResult{}, err
			}
		}
	}

	doMatch := func(url string, body []byte) (shard.MatchResult, string, error) {
		resp, err := client.Post(url+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil {
			return shard.MatchResult{}, "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return shard.MatchResult{}, "", fmt.Errorf("gateway status %d", resp.StatusCode)
		}
		var res shard.MatchResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		return res, resp.Header.Get("X-Cache"), err
	}
	reqPrim := server.MatchRequest{Seq: qseq, PatientID: data[0].pid, SessionID: data[0].sid, K: k}
	bodyPrim, err := json.Marshal(reqPrim)
	if err != nil {
		return concurrentResult{}, err
	}
	reqFol := reqPrim
	reqFol.MaxLag = 1 << 20
	bodyFol, err := json.Marshal(reqFol)
	if err != nil {
		return concurrentResult{}, err
	}

	// The primary-only merge is the reference every other mode must
	// reproduce byte for byte.
	base, _, err := doMatch(gwURL, bodyPrim)
	if err != nil {
		return concurrentResult{}, err
	}
	if base.Degraded || base.ShardsOK != shards {
		return concurrentResult{}, fmt.Errorf("concurrent warmup degraded: %d/%d shards", base.ShardsOK, base.ShardsQueried)
	}
	want, err := json.Marshal(base.Matches)
	if err != nil {
		return concurrentResult{}, err
	}
	fol, _, err := doMatch(gwURL, bodyFol)
	if err != nil {
		return concurrentResult{}, err
	}
	if fol.Degraded || fol.PlannedPatients == 0 || fol.FollowerServed == 0 {
		return concurrentResult{}, fmt.Errorf("follower-read warmup: degraded=%v planned=%d followerServed=%d",
			fol.Degraded, fol.PlannedPatients, fol.FollowerServed)
	}
	if got, err := json.Marshal(fol.Matches); err != nil || !bytes.Equal(got, want) {
		return concurrentResult{}, fmt.Errorf("follower-read merge diverges from primary-only (err %v)", err)
	}
	// Cache warmup: the first call runs before the gateway knows any
	// store tokens (uncacheable), the second fills, the third must hit.
	for i := 0; i < 2; i++ {
		if _, _, err := doMatch(gwcURL, bodyPrim); err != nil {
			return concurrentResult{}, err
		}
	}
	hit, cc, err := doMatch(gwcURL, bodyPrim)
	if err != nil {
		return concurrentResult{}, err
	}
	if cc != "hit" {
		return concurrentResult{}, fmt.Errorf("cache warmup: third identical query X-Cache = %q, want hit", cc)
	}
	if got, err := json.Marshal(hit.Matches); err != nil || !bytes.Equal(got, want) {
		return concurrentResult{}, fmt.Errorf("cached merge diverges from primary-only (err %v)", err)
	}

	per := totalOps / clients
	if per < 1 {
		per = 1
	}
	ops := per * clients
	hammer := func(url string, body []byte) (loadPoint, error) {
		errCh := make(chan error, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					res, _, err := doMatch(url, body)
					if err == nil {
						var got []byte
						if got, err = json.Marshal(res.Matches); err == nil && !bytes.Equal(got, want) {
							err = fmt.Errorf("response diverged from primary-only merge under load")
						}
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errCh:
			return loadPoint{}, err
		default:
		}
		return loadPoint{
			QPS:     float64(ops) / elapsed.Seconds(),
			NsPerOp: float64(elapsed.Nanoseconds()) / float64(per),
		}, nil
	}

	out := concurrentResult{
		Clients:                 clients,
		OpsPerScenario:          ops,
		Shards:                  shards,
		Replicas:                replicas,
		Matches:                 len(base.Matches),
		PlannedPatientsPerQuery: fol.PlannedPatients,
		FollowerServedPerQuery:  fol.FollowerServed,
	}
	if out.PrimaryOnly, err = hammer(gwURL, bodyPrim); err != nil {
		return concurrentResult{}, fmt.Errorf("primary-only: %w", err)
	}
	if out.FollowerRead, err = hammer(gwURL, bodyFol); err != nil {
		return concurrentResult{}, fmt.Errorf("follower-reads: %w", err)
	}
	hitsBefore := sigMetric("stsmatch_gateway_match_cache_hits_total")
	if out.CacheHit, err = hammer(gwcURL, bodyPrim); err != nil {
		return concurrentResult{}, fmt.Errorf("cache-hit: %w", err)
	}
	// Both gateways share the process-wide metrics registry, but only
	// gwc has a cache, so the delta is attributable.
	if delta := sigMetric("stsmatch_gateway_match_cache_hits_total") - hitsBefore; delta < float64(ops) {
		return concurrentResult{}, fmt.Errorf("cache scenario served only %.0f/%d requests from cache", delta, ops)
	}
	if out.PrimaryOnly.QPS > 0 {
		out.FollowerReadSpeedup = out.FollowerRead.QPS / out.PrimaryOnly.QPS
		out.CacheHitSpeedup = out.CacheHit.QPS / out.PrimaryOnly.QPS
	}
	return out, nil
}

// benchRebalance boots the same R=2 replicated 3-shard cluster as
// benchConcurrent, then grows it to 4 backends while one client keeps
// hammering the deterministic top-k query: AddBackend + Rebalance
// drains every ring-displaced session onto the new node through the
// live-migration protocol. The scenario hard-asserts zero failed
// moves, at least one session moved, and that every query issued
// before, during, and after the drain returns the byte-identical
// pre-drain match list — elasticity must be invisible to readers.
func benchRebalance(data []patientData, qseq plr.Sequence, k, iters int, duration float64) (rebalanceResult, error) {
	const shards = 3
	const replicas = 2
	var urls []string
	var servers []*http.Server
	var listeners []net.Listener
	defer func() {
		for _, hs := range servers {
			hs.Close() //nolint:errcheck
		}
	}()
	// Four backends up front; the gateway only learns about the fourth
	// when the scenario grows the ring.
	for i := 0; i < shards+1; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rebalanceResult{}, err
		}
		listeners = append(listeners, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	for i := range listeners {
		srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(),
			server.Options{AdvertiseURL: urls[i]})
		if err != nil {
			return rebalanceResult{}, err
		}
		hs := &http.Server{Handler: srv}
		servers = append(servers, hs)
		go hs.Serve(listeners[i]) //nolint:errcheck
	}

	gw, err := shard.NewGateway(urls[:shards], shard.Options{
		Replicas:          replicas,
		HealthInterval:    -1,
		FreshnessInterval: -1,
		MatchCacheSize:    -1, // every query must really execute the scatter
	})
	if err != nil {
		return rebalanceResult{}, err
	}
	defer gw.Close()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rebalanceResult{}, err
	}
	ghs := &http.Server{Handler: gw}
	servers = append(servers, ghs)
	go ghs.Serve(gln) //nolint:errcheck
	gwURL := "http://" + gln.Addr().String()

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(url string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	for i, pd := range data {
		if err := post(gwURL+"/v1/sessions",
			server.CreateSessionRequest{PatientID: pd.pid, SessionID: pd.sid}); err != nil {
			return rebalanceResult{}, err
		}
		gen, err := signal.NewRespiration(signal.DefaultRespiration(), int64(100+i))
		if err != nil {
			return rebalanceResult{}, err
		}
		samples := gen.Generate(duration)
		for off := 0; off < len(samples); off += 512 {
			end := min(off+512, len(samples))
			batch := make([]server.SampleIn, 0, end-off)
			for _, s := range samples[off:end] {
				batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
			}
			if err := post(gwURL+"/v1/sessions/"+pd.sid+"/samples", batch); err != nil {
				return rebalanceResult{}, err
			}
		}
	}

	body, err := json.Marshal(server.MatchRequest{
		Seq: qseq, PatientID: data[0].pid, SessionID: data[0].sid, K: k,
	})
	if err != nil {
		return rebalanceResult{}, err
	}
	doMatch := func() (shard.MatchResult, error) {
		resp, err := client.Post(gwURL+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil {
			return shard.MatchResult{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return shard.MatchResult{}, fmt.Errorf("gateway status %d", resp.StatusCode)
		}
		var res shard.MatchResult
		return res, json.NewDecoder(resp.Body).Decode(&res)
	}

	base, err := doMatch()
	if err != nil {
		return rebalanceResult{}, err
	}
	if base.Degraded || base.ShardsOK != shards {
		return rebalanceResult{}, fmt.Errorf("rebalance warmup degraded: %d/%d shards", base.ShardsOK, base.ShardsQueried)
	}
	want, err := json.Marshal(base.Matches)
	if err != nil {
		return rebalanceResult{}, err
	}
	checked := func() (shard.MatchResult, error) {
		res, err := doMatch()
		if err != nil {
			return res, err
		}
		if res.Degraded {
			return res, fmt.Errorf("query degraded mid-scenario: %d/%d shards", res.ShardsOK, res.ShardsQueried)
		}
		got, err := json.Marshal(res.Matches)
		if err != nil {
			return res, err
		}
		if !bytes.Equal(got, want) {
			return res, fmt.Errorf("match list diverged from pre-drain merge")
		}
		return res, nil
	}
	timed := func(n int) (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := checked(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}

	out := rebalanceResult{Shards: shards, Replicas: replicas}
	if out.MatchNsBefore, err = timed(iters); err != nil {
		return rebalanceResult{}, fmt.Errorf("before drain: %w", err)
	}

	// One client keeps querying while the drain runs; the drain's
	// wall clock divided into the queries that completed inside it is
	// the mid-drain latency.
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	var during atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				loadErr <- nil
				return
			default:
			}
			if _, err := checked(); err != nil {
				loadErr <- fmt.Errorf("during drain: %w", err)
				return
			}
			during.Add(1)
		}
	}()

	if err := gw.AddBackend(urls[shards]); err != nil {
		return rebalanceResult{}, err
	}
	drainStart := time.Now()
	rep := gw.Rebalance(context.Background())
	out.DrainSeconds = time.Since(drainStart).Seconds()
	out.QueriesDuring = int(during.Load())
	close(stop)
	if err := <-loadErr; err != nil {
		return rebalanceResult{}, err
	}
	if len(rep.Failed) > 0 {
		return rebalanceResult{}, fmt.Errorf("rebalance failed %d sessions: %v", len(rep.Failed), rep.Failed)
	}
	if len(rep.Moved) == 0 {
		return rebalanceResult{}, fmt.Errorf("rebalance moved no sessions onto the new backend (checked %d)", rep.Checked)
	}
	out.SessionsMoved = len(rep.Moved)
	if out.DrainSeconds > 0 {
		out.SessionsPerSec = float64(out.SessionsMoved) / out.DrainSeconds
	}
	if out.QueriesDuring > 0 {
		out.MatchNsDuring = out.DrainSeconds * 1e9 / float64(out.QueriesDuring)
	}

	// Vertices moved: the migrated sessions' full PLR streams, read
	// back through the gateway (which now routes them to the new node).
	for _, mv := range rep.Moved {
		resp, err := client.Get(gwURL + "/v1/sessions/" + mv.SessionID + "/plr")
		if err != nil {
			return rebalanceResult{}, err
		}
		var pr server.PLRResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			return rebalanceResult{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return rebalanceResult{}, fmt.Errorf("plr for migrated session %s: status %d", mv.SessionID, resp.StatusCode)
		}
		out.VerticesMoved += len(pr.Vertices)
	}

	if out.MatchNsAfter, err = timed(iters); err != nil {
		return rebalanceResult{}, fmt.Errorf("after drain: %w", err)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmatch:", err)
	os.Exit(1)
}
