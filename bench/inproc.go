package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// deployment is a freshly built system under test. A round builds one,
// runs its fixed op list against it, verifies it and closes it.
type deployment interface {
	// run executes one op of client c and returns its latency. An op
	// whose result fails a correctness check returns an error.
	run(c int, o op) (time.Duration, error)
	// verify runs the end-of-round oracle at quiescence.
	verify() tally
	// vertices is the corpus size after the build.
	vertices() int
	// traceTo turns tracing on: the deployment records a span around
	// every call it makes into a layer, and runs its in-process calls
	// under a program trace so the program's own stage timing is active.
	traceTo(t *tracer)
	close() error
}

// oracleEvery: in-process, every n-th query is re-answered by a brute
// force scan after the round, so the scan costs the round nothing.
const oracleEvery = 50

// pendingCheck is a query result held for the end-of-round oracle,
// with the live streams' lengths when it was answered.
type pendingCheck struct {
	q        core.Query
	got      []core.Match
	liveLens []int // index-aligned with inproc.live
}

// liveStream is the in-process form of a server session: the
// segmenter, its stream, and the newest raw observation.
type liveStream struct {
	seg     *fsm.Segmenter
	st      *store.Stream
	lastT   float64
	lastPos float64
	buf     []plr.Sample
}

func (l *liveStream) ingest(sig rawSignal, lo, hi int) error {
	l.buf = sig.samplesInto(l.buf, lo, hi)
	for _, sm := range l.buf {
		vs, err := l.seg.Push(sm)
		if err != nil {
			return err
		}
		if err := l.st.Append(vs...); err != nil {
			return err
		}
	}
	l.lastT, l.lastPos = sig.t[hi-1], sig.y[hi-1]
	return nil
}

// loadHistory appends every history stream to each database that
// holds the patient: the part of a build every deployment shares. A
// cold build segments each stream first, as the system would on first
// sight of the signal. With in.restore set, the build appends the
// oracles' segmentation instead (the same vertices, made with the
// inputs): the same database for a fraction of the time, and not a
// set-up sample.
func loadHistory(in *inputs, holders func(pid string) []*store.DB) error {
	var buf []plr.Sample
	for i, sig := range in.history {
		var seq plr.Sequence
		if in.restore {
			seq = in.histSeq[i]
		} else {
			seg, err := fsm.New(fsm.DefaultConfig())
			if err != nil {
				return err
			}
			buf = sig.samplesInto(buf, 0, sig.len())
			for _, sm := range buf {
				vs, err := seg.Push(sm)
				if err != nil {
					return err
				}
				seq = append(seq, vs...)
			}
		}
		for _, db := range holders(in.pids[i]) {
			p, err := db.AddPatient(store.PatientInfo{ID: in.pids[i]})
			if err != nil {
				return err
			}
			if err := p.AddStream(in.sids[i]).Append(seq...); err != nil {
				return err
			}
		}
	}
	return nil
}

// inproc is the corpus_* deployment: a core.Matcher on a store.DB with
// an fsm.Segmenter feeding the live stream, called directly.
type inproc struct {
	in      *inputs
	db      *store.DB
	m       *core.Matcher
	live    []*liveStream
	queries int
	pending []pendingCheck
	built   int
	tr      *tracer
	col     *obs.Collector // receives the program's traces when tr is set
}

func buildInproc(in *inputs) (deployment, error) {
	d := &inproc{in: in, db: store.NewDB()}
	if err := loadHistory(in, func(string) []*store.DB { return []*store.DB{d.db} }); err != nil {
		return nil, err
	}
	d.db.EnableIndexes()
	var err error
	if d.m, err = core.NewMatcher(d.db, core.DefaultParams()); err != nil {
		return nil, err
	}
	for _, l := range in.live {
		ls, err := openLive(d.db, l)
		if err != nil {
			return nil, err
		}
		d.live = append(d.live, ls)
	}
	d.built = d.db.NumVertices()
	return d, nil
}

// openLive adds the live patient and stream the way the server's
// session create does, and ingests the warm part of its signal.
func openLive(db *store.DB, l *liveSession) (*liveStream, error) {
	p, err := db.AddPatient(store.PatientInfo{ID: l.pid})
	if err != nil {
		return nil, err
	}
	seg, err := fsm.New(fsm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ls := &liveStream{seg: seg, st: p.AddStream(l.sid)}
	ls.st.EnableIndex()
	return ls, ls.ingest(l.sig, 0, l.warm)
}

func (d *inproc) vertices() int { return d.built }
func (d *inproc) close() error  { return nil }

func (d *inproc) traceTo(t *tracer) {
	d.tr, d.col = t, obs.NewCollector(0, 0)
}

// opContext is the context an in-process op runs under: background
// when untraced, carrying a fresh program trace when traced. finish
// ends that trace.
func (d *inproc) opContext(name string) (ctx context.Context, finish func()) {
	if d.tr == nil {
		return context.Background(), func() {}
	}
	root := obs.StartTrace(name, "bench", obs.SpanContext{}, d.col)
	return obs.ContextWithSpan(context.Background(), root), root.Finish
}

// predictLive is the server's prediction path on a live stream:
// dynamic query from the tail, threshold search, displacement from the
// newest observation. mark, when non-nil, is called after each of the
// three core calls with its name and start time.
func predictLive(ctx context.Context, m *core.Matcher, l *liveSession, ls *liveStream, mark func(name string, start time.Time)) (float64, error) {
	t := time.Now()
	step := func(name string) {
		if mark != nil {
			mark(name, t)
			t = time.Now()
		}
	}
	qseq, _ := m.Params.DynamicQuery(ls.st.Seq())
	step("core.dynamic_query")
	q := core.NewQuery(qseq, l.pid, l.sid)
	matches, err := m.FindSimilarCtx(ctx, q, nil)
	if err != nil {
		return 0, err
	}
	step("core.find_similar")
	d1 := ls.lastT - q.Now
	disp, err := m.PredictDisplacement(q, matches, d1, d1+predictDt, 0)
	if err != nil {
		return 0, err
	}
	step("core.predict_displacement")
	return ls.lastPos + disp[0], nil
}

func (d *inproc) run(c int, o op) (time.Duration, error) {
	l, ls := d.in.live[c], d.live[c]
	switch o.kind {
	case opQuery:
		qw := d.in.pool[o.arg]
		q := core.NewQuery(qw.seq, qw.pid, qw.sid)
		ctx, finish := d.opContext("bench.query")
		t0 := time.Now()
		got, err := d.m.TopKCtx(ctx, q, topK, nil)
		dt := time.Since(t0)
		finish()
		d.tr.child(c, "core.topk", t0, dt)
		if err != nil {
			return dt, err
		}
		d.queries++
		if d.queries%oracleEvery == 0 {
			lens := make([]int, len(d.live))
			for i, x := range d.live {
				lens[i] = x.st.Len()
			}
			d.pending = append(d.pending, pendingCheck{q: q, got: got, liveLens: lens})
		}
		return dt, nil
	case opPredict:
		var mark func(string, time.Time)
		if d.tr != nil {
			mark = func(name string, start time.Time) { d.tr.child(c, name, start, time.Since(start)) }
		}
		ctx, finish := d.opContext("bench.predict")
		t0 := time.Now()
		pos, err := predictLive(ctx, d.m, l, ls, mark)
		dt := time.Since(t0)
		finish()
		if err != nil {
			return dt, err
		}
		return dt, l.checkPrediction(pos)
	default:
		lo, hi := l.batch(o.arg)
		t0 := time.Now()
		err := ls.ingest(l.sig, lo, hi)
		dt := time.Since(t0)
		d.tr.child(c, "fsm.push+store.append", t0, dt)
		return dt, err
	}
}

// verify re-answers the held queries by brute force over the corpus as
// it stood when each was asked, and checks that every live stream holds
// exactly the bench's own segmentation of what was ingested.
func (d *inproc) verify() tally {
	t := d.verifyQueries()
	for c, l := range d.in.live {
		t.attempted++
		want, err := segment(l.sig, 0, l.sig.len())
		if err == nil && !sameVertices(d.live[c].st.Seq(), want) {
			err = fmt.Errorf("live stream %s differs from the segmentation of its ingested samples", l.sid)
		}
		if err != nil {
			t.fail(err)
		}
	}
	return t
}

func (d *inproc) verifyQueries() (t tally) {
	for _, pc := range d.pending {
		t.attempted++
		limit := make(map[*store.Stream]int, len(d.live))
		for i, x := range d.live {
			limit[x.st] = pc.liveLens[i]
		}
		if err := sameMatches(pc.got, bruteTopK(d.db, d.m.Params, pc.q, topK, limit)); err != nil {
			t.fail(fmt.Errorf("query vs brute force: %w", err))
		}
	}
	return t
}

func (l *liveSession) checkPrediction(pos float64) error {
	if math.IsNaN(pos) || pos < l.lo || pos > l.hi {
		return fmt.Errorf("prediction %v outside [%v, %v]", pos, l.lo, l.hi)
	}
	return nil
}

func sameVertices(a, b plr.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].State != b[i].State || len(a[i].Pos) != len(b[i].Pos) {
			return false
		}
		for k := range a[i].Pos {
			if a[i].Pos[k] != b[i].Pos[k] {
				return false
			}
		}
	}
	return true
}

// bruteTopK is the in-process oracle: every window of every stream
// with the query's state order, the exact Params.Distance, and the
// total order distance/patient/session/start. limit, when it names a
// stream, truncates it to that many vertices.
func bruteTopK(db *store.DB, p core.Params, q core.Query, k int, limit map[*store.Stream]int) []core.Match {
	n := len(q.Seq)
	var all []core.Match
	for _, st := range db.Streams() {
		seq := st.Seq()
		if l, ok := limit[st]; ok {
			seq = seq[:l]
		}
		rel := core.OtherPatient
		if q.PatientID == st.PatientID {
			rel = core.SamePatient
			if q.SessionID == st.SessionID {
				rel = core.SameSession
			}
		}
		for j := 0; j+n <= len(seq); j++ {
			cand := seq[j : j+n]
			if rel == core.SameSession && cand[n-1].T >= q.Seq[0].T {
				continue
			}
			dist, err := p.Distance(q.Seq, cand, rel)
			if errors.Is(err, core.ErrStateMismatch) {
				continue
			}
			if err != nil {
				panic(err) // lengths are equal and >= 2 by construction
			}
			all = append(all, core.Match{Stream: st, Start: j, N: n, Relation: rel,
				Distance: dist, Weight: p.StreamWeight(rel) / (1 + dist)})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.Distance != y.Distance {
			return x.Distance < y.Distance
		}
		if x.Stream.PatientID != y.Stream.PatientID {
			return x.Stream.PatientID < y.Stream.PatientID
		}
		if x.Stream.SessionID != y.Stream.SessionID {
			return x.Stream.SessionID < y.Stream.SessionID
		}
		return x.Start < y.Start
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sameMatches(got, want []core.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Stream != w.Stream || g.Start != w.Start || g.N != w.N ||
			g.Distance != w.Distance || g.Relation != w.Relation || g.Weight != w.Weight {
			return fmt.Errorf("match %d: %s/%s#%d d=%v, oracle %s/%s#%d d=%v", i,
				g.Stream.PatientID, g.Stream.SessionID, g.Start, g.Distance,
				w.Stream.PatientID, w.Stream.SessionID, w.Start, w.Distance)
		}
	}
	return nil
}
