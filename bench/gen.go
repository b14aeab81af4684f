package main

// The load generator: everything here is derived from -seed and none
// of it is timed. The system under test only ever sees the generated
// samples, query windows and op order.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/signal"
)

const (
	sampleRate = 30  // Hz, the paper's imaging rate
	batchLen   = 30  // raw samples per second of signal: the unit of ingest
	queryLen   = 10  // vertices per query window
	queryPool  = 128 // distinct query windows per run
	poolBlock  = 8   // pool slots come in blocks of eight with a fixed make-up, see slotShape
	hotQueries = 8   // cluster: half of all queries come from this prefix of the query order
	topK       = 10  // k of every similarity query
	warmLive   = 120 // seconds of its own signal a live session holds before the first op
	predictDt  = 0.2 // prediction horizon in seconds
)

// rawSignal is one stream of 1-D raw samples kept as two flat float
// slices (16 B/sample, no pointers) so a 200-patient cohort can stay
// resident across repeated cold builds without loading the collector.
type rawSignal struct {
	t, y []float64
}

func (s rawSignal) len() int { return len(s.t) }

// samplesInto materialises [lo,hi) as plr.Samples in buf (grown as
// needed). Each Pos aliases s.y; fsm.Segmenter.Push clones what it
// keeps, so nothing retains them.
func (s rawSignal) samplesInto(buf []plr.Sample, lo, hi int) []plr.Sample {
	buf = buf[:0]
	for i := lo; i < hi; i++ {
		buf = append(buf, plr.Sample{T: s.t[i], Pos: s.y[i : i+1 : i+1]})
	}
	return buf
}

// patientConfig is patient i's breathing configuration. It depends on
// the index alone, not on the seed: the cohort's design (the four class
// families of internal/signal's cohort generator, calm, deep, rapid
// and erratic, each spread evenly over its parameter range) is the
// same in every run, and the seed only picks the realisation: cycle
// jitter, noise, drift, and where irregular episodes fall. That keeps
// a metric's run-to-run spread from being mostly "which cohort was
// drawn", which matters most for the 12-patient corpus.
func patientConfig(i int) signal.RespirationConfig {
	cfg := signal.DefaultRespiration()
	// u walks (-1, 1) in golden-ratio steps: evenly spread, no period.
	u := 2*math.Mod(float64(i/4+1)*0.6180339887, 1) - 1
	switch i % 4 {
	case 0:
		cfg.Period, cfg.Amplitude, cfg.IrregularProb = 4.4+0.6*u, 9+2.5*u, 0.006
	case 1:
		cfg.Period, cfg.Amplitude, cfg.IrregularProb = 5.0+0.8*u, 20-4*u, 0.012
	case 2:
		cfg.Period, cfg.Amplitude, cfg.IrregularProb = 2.6+0.4*u, 12+2.5*u, 0.015
	default:
		cfg.Period, cfg.Amplitude, cfg.IrregularProb = 3.6+0.9*u, 14-4*u, 0.07
		cfg.PeriodJit, cfg.AmpJit = 0.18, 0.22
	}
	return cfg
}

// genSignal generates at least n samples and keeps exactly n.
func genSignal(cfg signal.RespirationConfig, seed int64, n int) (rawSignal, error) {
	g, err := signal.NewRespiration(cfg, seed)
	if err != nil {
		return rawSignal{}, err
	}
	ss := g.Generate(float64(n)/sampleRate + 1)
	if len(ss) < n {
		return rawSignal{}, fmt.Errorf("generator produced %d samples, want %d", len(ss), n)
	}
	s := rawSignal{t: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.t[i], s.y[i] = ss[i].T, ss[i].Pos[0]
	}
	return s, nil
}

// segment is the load generator's (and the oracles') own segmentation
// of a signal; it is the same deterministic fsm the system runs.
func segment(s rawSignal, lo, hi int) (plr.Sequence, error) {
	seg, err := fsm.New(fsm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var seq plr.Sequence
	for _, sm := range s.samplesInto(nil, lo, hi) {
		vs, err := seg.Push(sm)
		if err != nil {
			return nil, err
		}
		seq = append(seq, vs...)
	}
	return seq, nil
}

// queryWindow is one pool entry: the window, its provenance (empty
// for held-out streams) and its /v1/match body.
type queryWindow struct {
	seq      plr.Sequence
	pid, sid string
	body     []byte
}

// opKind is one of the three operation types every workload runs.
type opKind uint8

const (
	opQuery opKind = iota
	opPredict
	opIngest
	numKinds
)

var kindNames = [numKinds]string{"query", "predict", "ingest"}

// op is one step of a client's closed loop. arg is the pool index for
// a query and the batch index for an ingest.
type op struct {
	kind opKind
	arg  int
}

// liveSession is the signal one client streams: warmLive seconds the
// build ingests, then one batch per ingest op of a round.
type liveSession struct {
	pid, sid string
	sig      rawSignal
	warm     int     // samples ingested by the build
	per      int     // samples per ingest op
	lo, hi   float64 // accepted range for a predicted position
	// Request bodies, made only for served workloads: the warm signal,
	// one batch per ingest op in order, and the standing subscriptions.
	warmBody  []byte
	batches   [][]byte
	subBodies [][]byte
}

func (l *liveSession) batch(i int) (lo, hi int) {
	lo = l.warm + i*l.per
	return lo, lo + l.per
}

// inputs is everything one run feeds a workload.
type inputs struct {
	spec    workloadSpec
	history []rawSignal // one stream per history patient
	pids    []string
	sids    []string
	pool    []queryWindow
	order   []int // the pool's slots in the order queries ask for them
	live    []*liveSession
	ops     [][]op         // per client, identical every round
	warmOps [][]op         // per client, discarded
	histSeq []plr.Sequence // the oracles' segmentation of history, one sequence per patient
	restore bool           // the next build restores instead of segmenting (see loadHistory)
	tmp     string         // where builds make data dirs
}

func samplesJSON(s rawSignal, lo, hi int) ([]byte, error) {
	in := make([]server.SampleIn, hi-lo)
	for i := range in {
		in[i] = server.SampleIn{T: s.t[lo+i], Pos: []float64{s.y[lo+i]}}
	}
	return json.Marshal(in)
}

// genInputs builds a run's inputs from the seed alone.
func genInputs(spec workloadSpec, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: spec}
	n := int(spec.histSeconds * sampleRate)
	for i := 0; i < spec.patients; i++ {
		s, err := genSignal(patientConfig(i), rng.Int63(), n)
		if err != nil {
			return nil, err
		}
		seq, err := segment(s, 0, s.len())
		if err != nil {
			return nil, err
		}
		in.history = append(in.history, s)
		in.histSeq = append(in.histSeq, seq)
		in.pids = append(in.pids, fmt.Sprintf("P%03d", i))
		in.sids = append(in.sids, fmt.Sprintf("S-P%03d", i))
	}

	for j := 0; j < queryPool; j++ {
		qw, err := in.cutWindow(j, rng)
		if err != nil {
			return nil, fmt.Errorf("query window %d: %w", j, err)
		}
		qw.body, err = json.Marshal(server.MatchRequest{Seq: qw.seq, PatientID: qw.pid, SessionID: qw.sid, K: topK})
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, qw)
	}
	// The order queries are asked in: the pool's blocks shuffled, and
	// each block's slots shuffled, so any run of whole blocks keeps the
	// pool's make-up.
	for _, b := range rng.Perm(queryPool / poolBlock) {
		for _, k := range rng.Perm(poolBlock) {
			in.order = append(in.order, b*poolBlock+k)
		}
	}
	return in, in.genClients()
}

// slotShape says what pool slot j must look like. What a query costs
// follows how common its state order is (a window with an irregular
// segment has a few hundred candidates where a regular one has tens of
// thousands) and whose breathing it resembles, so a pool drawn freely
// makes every query metric a draw of its make-up: with 64 free windows
// the irregular share ran from 19 to 37 % between seeds and
// query_p50_us with it. The make-up is therefore fixed and the seed
// picks the streams' realisations and where in its stream each window
// is cut. Of every eight slots six are regular, two starting in each
// regular state, and two hold an irregular segment; even slots are cut
// from a corpus stream (an exact self-match exists and self-exclusion
// is exercised), odd ones from a held-out stream with no provenance
// (every candidate is another patient's).
func slotShape(j int) (corpus, irregular bool, first plr.State) {
	k := j % poolBlock
	return k%2 == 0, k >= 6, plr.State(k % 3)
}

// fits reports whether the window starting at vertex at has slot j's
// shape.
func fits(seq plr.Sequence, at, j int) bool {
	_, irregular, first := slotShape(j)
	hasIRR := false
	for _, v := range seq[at : at+queryLen-1] {
		hasIRR = hasIRR || v.State == plr.IRR
	}
	if irregular {
		return hasIRR
	}
	return !hasIRR && seq[at].State == first
}

// cutWindow makes pool slot j. Its stream is a function of j (for a
// regular slot the classes take turns; an irregular slot takes the
// erratic class, the only one sure to have such windows), the position
// within the stream is the seed's. A stream with no window of the
// shape passes the slot on to the next stream of its class.
func (in *inputs) cutWindow(j int, rng *rand.Rand) (queryWindow, error) {
	corpus, irregular, _ := slotShape(j)
	class := (j / 2) % 3
	if irregular {
		class = 3
	}
	n := int(in.spec.histSeconds * sampleRate)
	for try := 0; try < 64; try++ {
		// cfg is the index of the stream's breathing configuration:
		// class + 4*(which stream of that class).
		cfg := class + 4*(j/poolBlock+try)
		var qw queryWindow
		var seq plr.Sequence
		if corpus {
			cfg %= len(in.history) / 4 * 4
			qw.pid, qw.sid, seq = in.pids[cfg], in.sids[cfg], in.histSeq[cfg]
		} else {
			sig, err := genSignal(patientConfig(cfg), rng.Int63(), n)
			if err != nil {
				return qw, err
			}
			if seq, err = segment(sig, 0, sig.len()); err != nil {
				return qw, err
			}
		}
		var starts []int
		for at := queryLen; at+2*queryLen <= len(seq); at++ {
			if fits(seq, at, j) {
				starts = append(starts, at)
			}
		}
		if len(starts) > 0 {
			at := starts[rng.Intn(len(starts))]
			qw.seq = seq[at : at+queryLen].Clone()
			return qw, nil
		}
	}
	return queryWindow{}, fmt.Errorf("no stream has a window of the slot's shape")
}

// schedule spreads a round's ops evenly: at every step the kind that
// is furthest behind its share goes next. It is the same in every run,
// so the predictions of a round always see the same tails of the same
// live stream, and the ingests the same batches.
func schedule(nq, np, ni int) []opKind {
	want := [numKinds]int{opQuery: nq, opPredict: np, opIngest: ni}
	total := nq + np + ni
	var done [numKinds]int
	kinds := make([]opKind, 0, total)
	for t := 1; t <= total; t++ {
		// lag is how far behind its share a kind is, in units of 1/total.
		best, bestLag := opKind(0), math.MinInt
		for k := opKind(0); k < numKinds; k++ {
			lag := want[k]*t - done[k]*total
			if done[k] < want[k] && lag > bestLag {
				best, bestLag = k, lag
			}
		}
		done[best]++
		kinds = append(kinds, best)
	}
	return kinds
}

// genClients makes each client's op list and the live session it
// streams. The list's kinds follow schedule; the seed decides which
// window each query asks for (in.order).
func (in *inputs) genClients() error {
	spec := in.spec
	nq, np, ni := spec.queries, spec.predicts, spec.ingests
	in.ops = make([][]op, spec.clients)
	in.warmOps = make([][]op, spec.clients)
	in.live = nil
	for c := 0; c < spec.clients; c++ {
		// Client c starts its walk of the windows c/clients of the way
		// round, so two clients rarely ask for the same one at once.
		asked := 0
		pick := func() int {
			i := asked
			asked++
			if !spec.hotSet {
				return in.order[(c*queryPool/spec.clients+i)%queryPool]
			}
			// Of every four queries the last two ask for the same hot
			// window: the second finds the gateway's cache warm unless a
			// batch that closed a vertex was acknowledged in between.
			if i%4 >= 2 {
				return in.order[(c*hotQueries/spec.clients+i/4)%hotQueries]
			}
			const cold = queryPool - hotQueries
			return in.order[hotQueries+(c*cold/spec.clients+i/4*2+i%4)%cold]
		}
		batches := 0
		mk := func(nq, np, ni int) []op {
			ops := make([]op, 0, nq+np+ni)
			for _, k := range schedule(nq, np, ni) {
				o := op{kind: k}
				switch k {
				case opQuery:
					o.arg = pick()
				case opIngest:
					o.arg = batches
					batches++
				}
				ops = append(ops, o)
			}
			return ops
		}
		// The warm-up is a tenth of a round; its batches come first.
		in.warmOps[c] = mk((nq+9)/10, (np+9)/10, (ni+9)/10)
		asked = 0
		in.ops[c] = mk(nq, np, ni)

		// The live stream breathes regularly, so a prediction is always
		// available and no op legitimately fails; and it is the same in
		// every run, because one stream's realisation otherwise decides
		// how many matches every prediction of the run has to weigh.
		cfg := patientConfig(4*c + 1)
		cfg.IrregularProb = 0
		cfg.SpikeProb = 0
		cfg.ModDepth = 0
		warm, per := warmLive*sampleRate, batchLen*max(1, spec.batchSeconds)
		sig, err := genSignal(cfg, int64(7919*(c+1)), warm+batches*per)
		if err != nil {
			return err
		}
		l := &liveSession{pid: fmt.Sprintf("LIVE%d", c), sid: fmt.Sprintf("L%d", c), sig: sig, warm: warm, per: per}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, y := range sig.y {
			lo, hi = math.Min(lo, y), math.Max(hi, y)
		}
		l.lo, l.hi = lo-(hi-lo), hi+(hi-lo)
		if spec.http {
			if err := l.makeBodies(batches, spec.subs); err != nil {
				return err
			}
		}
		in.live = append(in.live, l)
	}
	return nil
}

// subPatternLen is the length of a standing subscription's pattern.
const subPatternLen = 8

func (l *liveSession) makeBodies(batches, subs int) (err error) {
	if l.warmBody, err = samplesJSON(l.sig, 0, l.warm); err != nil {
		return err
	}
	for i := 0; i < batches; i++ {
		a, b := l.batch(i)
		body, err := samplesJSON(l.sig, a, b)
		if err != nil {
			return err
		}
		l.batches = append(l.batches, body)
	}
	// Standing patterns are cut from the live stream's own warm part,
	// so the breathing that follows keeps matching them.
	warmSeq, err := segment(l.sig, 0, l.warm)
	if err != nil {
		return err
	}
	for j := 0; j < subs; j++ {
		at := 5 + 3*j
		if at+subPatternLen > len(warmSeq) {
			return fmt.Errorf("warm signal of %s has only %d vertices", l.sid, len(warmSeq))
		}
		body, err := json.Marshal(server.SubscriptionRequest{
			ID: fmt.Sprintf("sub-%s-%d", l.sid, j), PatientID: l.pid,
			Seq: warmSeq[at : at+subPatternLen],
		})
		if err != nil {
			return err
		}
		l.subBodies = append(l.subBodies, body)
	}
	return nil
}

// hash fingerprints the generated inputs: op order, query windows and
// the first and last sample of every stream.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	put := func(v any) { fmt.Fprint(h, v, ";") }
	for _, list := range append(append([][]op{}, in.warmOps...), in.ops...) {
		for _, o := range list {
			put(o)
		}
	}
	for _, q := range in.pool {
		h.Write(q.body)
	}
	for _, s := range in.history {
		put(s.y[0])
		put(s.y[len(s.y)-1])
	}
	for _, l := range in.live {
		put(l.sig.y[0])
		put(l.sig.y[len(l.sig.y)-1])
	}
	return h.Sum64()
}
