package main

// Per-layer measurements of the traced run: each layer's public
// functions timed from here on the workload's own data, and counter
// deltas read from the registry the program already exports. Nothing
// in this file feeds an end-to-end metric.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/sigindex"
	"stsmatch/internal/store"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// layerSet collects per-layer metrics in the order they were measured.
type layerSet struct {
	list []metric
}

// add records one metric. A value that is not a finite number (a layer
// that saw no sample) is recorded as 0 so the result stays valid JSON.
func (l *layerSet) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.list = append(l.list, metric{name: name, value: v, unit: unit})
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// counter reads the sum of a counter family's children from the
// default registry (labelled points are named "family{...}").
func counter(family string) float64 {
	var sum float64
	for _, p := range obs.Default().Gather() {
		if p.Name == family || strings.HasPrefix(p.Name, family+"{") {
			sum += p.Value
		}
	}
	return sum
}

// mallocs returns the cumulative allocation count and bytes.
func mallocs() (n, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// timeEach times f(i) for i in [0,n) and returns the median call and
// the sum of all calls, in microseconds.
func timeEach(n int, f func(i int)) (med, total float64) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f(i)
		xs[i] = us(time.Since(t0))
		total += xs[i]
	}
	return median(xs), total
}

func medianOf(n int, f func(i int)) float64 {
	med, _ := timeEach(n, f)
	return med
}

// layerBenches measures the in-process layers on the core rung's
// database and the ladder's live signal. It must run before the peel
// advances the live streams.
func layerBenches(lad *ladder, L *layerSet) error {
	queries := make([]core.Query, len(lad.in.pool))
	for i, qw := range lad.in.pool {
		queries[i] = core.NewQuery(qw.seq, qw.pid, qw.sid)
	}
	l := lad.in.live[0]
	liveSeq, err := segment(l.sig, 0, l.sig.len())
	if err != nil {
		return err
	}
	if err := fsmBench(l, L); err != nil {
		return err
	}
	if err := storeBench(lad, queries, liveSeq, L); err != nil {
		return err
	}
	if err := coreBench(lad, queries, L); err != nil {
		return err
	}
	if err := sigindexBench(lad, queries, liveSeq, L); err != nil {
		return err
	}
	if err := walBench(lad.in, L); err != nil {
		return err
	}
	return subscribeBench(l, lad.core.m.Params, L)
}

// topkPass answers every pool query once and returns the median call
// and the whole pass, in microseconds.
func topkPass(m *core.Matcher, queries []core.Query) (med, total float64, err error) {
	med, total = timeEach(len(queries), func(i int) {
		if _, e := m.TopK(queries[i], topK, nil); e != nil {
			err = e
		}
	})
	return med, total, err
}

// fsmBench: Segmenter.Push over the live signal, batch by batch.
func fsmBench(l *liveSession, L *layerSet) error {
	seg, err := fsm.New(fsm.DefaultConfig())
	if err != nil {
		return err
	}
	buf := l.sig.samplesInto(nil, 0, l.sig.len()/batchLen*batchLen)
	vertices := 0
	m0, _ := mallocs()
	t0 := time.Now()
	for _, sm := range buf {
		vs, err := seg.Push(sm)
		if err != nil {
			return err
		}
		vertices += len(vs)
	}
	dt := time.Since(t0)
	m1, _ := mallocs()
	n := float64(len(buf))
	L.add("fsm.push_ns_per_sample", float64(dt.Nanoseconds())/n, "ns")
	L.add("fsm.allocs_per_sample", float64(m1-m0)/n, "count")
	L.add("fsm.vertices_per_sample", float64(vertices)/n, "ratio")
	return nil
}

// storeBench: Stream.Append one vertex at a time into an indexed
// stream, as live ingest does; bytes per vertex from the core rung's
// heap; the state-order filter per query, summed over streams.
func storeBench(lad *ladder, queries []core.Query, liveSeq plr.Sequence, L *layerSet) error {
	p, err := store.NewDB().AddPatient(store.PatientInfo{ID: "append-bench"})
	if err != nil {
		return err
	}
	st := p.AddStream("s")
	st.EnableIndex()
	t0 := time.Now()
	for i := range liveSeq {
		if err := st.Append(liveSeq[i]); err != nil {
			return err
		}
	}
	L.add("store.append_ns_per_vertex", float64(time.Since(t0).Nanoseconds())/float64(len(liveSeq)), "ns")
	L.add("store.bytes_per_vertex", lad.coreHeapMB*(1<<20)/float64(lad.core.built), "B")
	streams := lad.core.db.Streams()
	L.add("store.find_windows_us", medianOf(len(queries), func(i int) {
		sig := queries[i].Seq.StateSignature()
		for _, st := range streams {
			st.FindWindows(sig)
		}
	}), "us")
	return nil
}

// coreBench: direct matcher calls. The funnel counts are registry
// deltas over one pass of the pool, so they are exact.
func coreBench(lad *ladder, queries []core.Query, L *layerSet) error {
	d := lad.core
	l, ls, params := lad.in.live[0], d.live[0], d.m.Params
	if _, _, err := topkPass(d.m, queries); err != nil { // warm the matcher's scratch
		return err
	}
	funnel := []string{"candidates_scanned", "index_pruned", "self_excluded", "lb_pruned", "matches"}
	before := make(map[string]float64)
	for _, n := range funnel {
		before[n] = counter("stsmatch_matcher_" + n + "_total")
	}
	m0, b0 := mallocs()
	med, def, err := topkPass(d.m, queries)
	if err != nil {
		return err
	}
	m1, b1 := mallocs()
	L.add("core.pool_topk_us", med, "us") // what sigindex.indexed_topk_us is compared with
	nq := float64(len(queries))
	delta := func(n string) float64 { return (counter("stsmatch_matcher_"+n+"_total") - before[n]) / nq }
	cand, pruned, self, lb, matched := delta("candidates_scanned"), delta("index_pruned"), delta("self_excluded"), delta("lb_pruned"), delta("matches")
	exact := cand - self - lb
	L.add("core.windows_considered", cand+pruned, "count")
	L.add("core.candidates_scanned", cand, "count")
	L.add("core.lb_pruned", lb, "count")
	L.add("core.exact_evaluated", exact, "count")
	L.add("core.matched", matched, "count")
	L.add("core.lb_prune_ratio", lb/(cand-self), "ratio")
	L.add("core.useful_ratio", matched/exact, "ratio")
	L.add("core.allocs_per_query", float64(m1-m0)/nq, "count")
	L.add("core.alloc_kb_per_query", float64(b1-b0)/1024/nq, "KB")

	seqParams := params
	seqParams.Parallelism = 1
	m1p, err := core.NewMatcher(d.db, seqParams)
	if err != nil {
		return err
	}
	if _, _, err := topkPass(m1p, queries); err != nil {
		return err
	}
	_, seq1, err := topkPass(m1p, queries)
	if err != nil {
		return err
	}
	L.add("core.parallel_speedup", seq1/def, "ratio")

	live := ls.st.Seq()
	L.add("core.dynamic_query_us", medianOf(200, func(int) { params.DynamicQuery(live) }), "us")

	// One exact distance, on the pair the first corpus query's best
	// match makes.
	q := queries[0]
	top, err := d.m.TopK(q, 1, nil)
	if err != nil {
		return err
	}
	if len(top) == 0 {
		return fmt.Errorf("pool query 0 has no match to time a distance on")
	}
	cand0, rel := top[0].Window(), top[0].Relation
	const reps = 20000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := params.Distance(q.Seq, cand0, rel); err != nil {
			return err
		}
	}
	L.add("core.distance_ns", float64(time.Since(t0).Nanoseconds())/reps, "ns")

	// StandingQuery.EvalRange, one appended vertex at a time.
	sq, err := core.NewStandingQuery(params, core.Query{Seq: live[5 : 5+subPatternLen], PatientID: l.pid}, 0, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for end := subPatternLen; end < len(live); end++ {
		if _, _, err := sq.EvalRange(ls.st, end, end+1); err != nil {
			return err
		}
	}
	L.add("core.standing_eval_us_per_vertex", us(time.Since(t0))/float64(len(live)-subPatternLen), "us")
	return nil
}

// sigindexBench: the same pool through an index-enabled matcher (the
// index is off in the end-to-end runs, as in the default server).
func sigindexBench(lad *ladder, queries []core.Query, liveSeq plr.Sequence, L *layerSet) error {
	d := lad.core
	idx, err := sigindex.New(sigindex.DefaultConfig())
	if err != nil {
		return err
	}
	t0 := time.Now()
	idx.BuildFrom(d.db)
	L.add("sigindex.build_s", time.Since(t0).Seconds(), "s")
	ip := d.m.Params
	ip.UseIndex = true
	im, err := core.NewMatcher(d.db, ip)
	if err != nil {
		return err
	}
	im.Index = idx
	// One envelope probe per query: the window's own amplitude and
	// duration, a quarter either way.
	var cands []float64
	L.add("sigindex.probe_us", medianOf(len(queries), func(i int) {
		amp, dur := 0.0, queries[i].Seq.Duration()
		for _, g := range queries[i].Seq.Segments() {
			amp += g.Amplitude()
		}
		res := idx.Probe(sigindex.ProbeQuery{Sig: queries[i].Seq.StateSignature(),
			AmpLo: 0.75 * amp, AmpHi: 1.25 * amp, DurLo: 0.75 * dur, DurHi: 1.25 * dur})
		cands = append(cands, float64(res.Candidates))
	}), "us")
	L.add("sigindex.candidates_per_query", median(cands), "count")
	if _, _, err := topkPass(im, queries); err != nil { // warm the matcher's scratch
		return err
	}
	med, _, err := topkPass(im, queries)
	if err != nil {
		return err
	}
	L.add("sigindex.indexed_topk_us", med, "us")
	idx.OnMutation(store.Mutation{Kind: store.MutPatientUpsert, Patient: store.PatientInfo{ID: "idx-bench"}})
	idx.OnMutation(store.Mutation{Kind: store.MutStreamOpen, PatientID: "idx-bench", SessionID: "s"})
	t0 = time.Now()
	for i := range liveSeq {
		idx.OnMutation(store.Mutation{Kind: store.MutVertexAppend, PatientID: "idx-bench", SessionID: "s", Vertices: liveSeq[i : i+1]})
	}
	L.add("sigindex.on_mutation_ns_per_vertex", float64(time.Since(t0).Nanoseconds())/float64(len(liveSeq)), "ns")
	return nil
}

// walVertexCap bounds how much of the corpus the WAL bench journals.
const walVertexCap = 50000

// walBench journals the oracle segmentation of the history one vertex
// per record (what live ingest writes), then reopens the log to time
// recovery and compacts it to time a snapshot.
func walBench(in *inputs, L *layerSet) error {
	if err := os.MkdirAll(in.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(in.tmp, "wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	oracle := store.NewDB()
	if err := in.loadOracleHistory(oracle); err != nil {
		return err
	}
	opts := wal.Options{Dir: dir, FsyncInterval: fsyncInterval}
	log, _, err := wal.Open(opts, nil)
	if err != nil {
		return err
	}
	vertices := 0
	var appendNS time.Duration
	var syncs []float64
	for i, seq := range in.histSeq {
		if vertices >= walVertexCap {
			break
		}
		pid, sid := in.pids[i], in.sids[i]
		if err := log.Append(wal.Record{Type: wal.TypePatientUpsert, Patient: store.PatientInfo{ID: pid}}); err != nil {
			return err
		}
		if err := log.Append(wal.Record{Type: wal.TypeStreamOpen, PatientID: pid, SessionID: sid}); err != nil {
			return err
		}
		t0 := time.Now()
		for j := range seq {
			if err := log.Append(wal.Record{Type: wal.TypeVertexAppend, PatientID: pid, SessionID: sid, Vertices: seq[j : j+1]}); err != nil {
				return err
			}
		}
		appendNS += time.Since(t0)
		vertices += len(seq)
		t0 = time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, us(time.Since(t0)))
	}
	if err := log.Close(); err != nil {
		return err
	}
	var bytes int64
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	L.add("wal.append_ns", float64(appendNS.Nanoseconds())/float64(vertices), "ns")
	L.add("wal.sync_us", median(syncs), "us")
	L.add("wal.bytes_per_vertex", float64(bytes)/float64(vertices), "B")

	t0 := time.Now()
	log, res, err := wal.Open(opts, nil)
	if err != nil {
		return err
	}
	L.add("wal.recovery_s", time.Since(t0).Seconds(), "s")
	if got := res.DB.NumVertices(); got != vertices {
		log.Close() //nolint:errcheck // the mismatch is the error to report
		return fmt.Errorf("wal bench: recovered %d vertices, journaled %d", got, vertices)
	}
	t0 = time.Now()
	if _, err := log.Snapshot(res.DB, nil, nil); err != nil {
		log.Close() //nolint:errcheck // the snapshot error is the one to report
		return err
	}
	L.add("wal.snapshot_s", time.Since(t0).Seconds(), "s")
	return log.Close()
}

// subscribeBench ingests the live signal into two bare databases, one
// with two standing subscriptions armed on the live patient and
// drained after every batch (what the server's ingest path does), one
// without; the difference is what the subscriptions cost a batch.
func subscribeBench(l *liveSession, params core.Params, L *layerSet) error {
	warmSeq, err := segment(l.sig, 0, l.warm)
	if err != nil {
		return err
	}
	ingestAll := func(armed bool) (perBatch []float64, vertices, events int, err error) {
		db := store.NewDB()
		ls, err := openLive(db, l)
		if err != nil {
			return nil, 0, 0, err
		}
		var mgr *subscribe.Manager
		if armed {
			mgr = subscribe.NewManager(params, 0)
			for j := 0; j < 2; j++ {
				at := 5 + 3*j
				st := wal.SubState{ID: fmt.Sprintf("bench-%d", j), PatientID: l.pid, Pattern: warmSeq[at : at+subPatternLen]}
				if _, err := mgr.Register(&st, db); err != nil {
					return nil, 0, 0, err
				}
			}
			db.AddMutationHook(mgr.OnMutation)
		}
		before := ls.st.Len()
		for lo := l.warm; lo+batchLen <= l.sig.len(); lo += batchLen {
			t0 := time.Now()
			if err := ls.ingest(l.sig, lo, lo+batchLen); err != nil {
				return nil, 0, 0, err
			}
			if mgr != nil {
				mgr.Drain(context.Background(), db)
			}
			perBatch = append(perBatch, us(time.Since(t0)))
		}
		if mgr != nil {
			for _, st := range mgr.List() {
				events += st.Matched
			}
		}
		return perBatch, ls.st.Len() - before, events, nil
	}
	bare, _, _, err := ingestAll(false)
	if err != nil {
		return err
	}
	armed, vertices, events, err := ingestAll(true)
	if err != nil {
		return err
	}
	L.add("subscribe.eval_us_per_batch", median(armed)-median(bare), "us")
	L.add("subscribe.events_per_vertex", float64(events)/float64(max(vertices, 1)), "ratio")
	return nil
}
