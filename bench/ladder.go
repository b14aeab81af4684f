package main

// The traced run. The program cannot be given new spans by this
// change, so depth comes from layer peeling by replay: every op of one
// client's list is executed at four successive depths on the same data
//
//	core call -> server handler on a recorder -> one server over
//	loopback HTTP -> through the gateway to three shards
//
// and the differences between neighbouring depths are the layer rows.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"stsmatch/internal/server"
)

// ladder is the four rungs, built from one set of inputs: the
// workload's corpus, pool and op mix, with two live sessions (the
// first is replayed at every depth, the second measures replication).
type ladder struct {
	in         *inputs
	core       *inproc
	coreHeapMB float64
	single     *httpDep
	cluster    *httpDep
}

// twin is the live session the handler rung ingests into: same signal
// as the first live session, its own patient and session on the single
// server.
const twinPID, twinSID = "LIVE0h", "L0h"

// soloPID/soloSID name the unreplicated copy of the second live session.
const soloPID, soloSID = "LIVE1u", "L1u"

// minPeelOps is the least number of ops of each kind a served
// workload's ladder replays.
const minPeelOps = 64

func (in *inputs) ladderInputs() (*inputs, error) {
	lin := *in
	if lin.spec.http {
		// Every row is a median over the ops of one kind: replay enough
		// of each, whatever the workload's mix.
		lin.spec.queries = max(lin.spec.queries, minPeelOps)
		lin.spec.predicts = max(lin.spec.predicts, minPeelOps)
		lin.spec.ingests = max(lin.spec.ingests, minPeelOps)
	}
	lin.spec.clients, lin.spec.http, lin.spec.subs = 2, true, 0
	lin.restore = false // the rungs build cold, so the core rung's heap is all its own
	return &lin, lin.genClients()
}

func buildLadder(in *inputs) (lad *ladder, err error) {
	lad = &ladder{in: in}
	defer func() {
		if err != nil {
			lad.close() //nolint:errcheck // the build error is the one to report
		}
	}()
	base := settledHeap()
	dep, err := buildInproc(in)
	if err != nil {
		return lad, err
	}
	lad.core = dep.(*inproc)
	lad.coreHeapMB = float64(int64(settledHeap())-int64(base)) / (1 << 20)

	one, three := *in, *in
	one.spec.shards, three.spec.shards = 0, 3
	if dep, err = buildHTTP(&one); err != nil {
		return lad, err
	}
	lad.single = dep.(*httpDep)
	if dep, err = buildHTTP(&three); err != nil {
		return lad, err
	}
	lad.cluster = dep.(*httpDep)

	// The extra sessions: the handler rung's twin of L0 on the single
	// server, and an unreplicated twin of L1 on L1's primary shard.
	open := func(base, pid, sid string, warm []byte) error {
		body, err := json.Marshal(server.CreateSessionRequest{PatientID: pid, SessionID: sid})
		if err != nil {
			return err
		}
		if _, _, err := doHTTP(lad.cluster.client, http.MethodPost, base+"/v1/sessions", body, http.StatusCreated); err != nil {
			return err
		}
		_, _, err = doHTTP(lad.cluster.client, http.MethodPost, base+"/v1/sessions/"+sid+"/samples", warm, http.StatusOK)
		return err
	}
	if err := open(lad.single.base, twinPID, twinSID, in.live[0].warmBody); err != nil {
		return lad, err
	}
	primary, _, ok := lad.cluster.gw.SessionPlacement(in.live[1].sid)
	if !ok {
		return lad, fmt.Errorf("gateway has no placement for %s", in.live[1].sid)
	}
	return lad, open(primary, soloPID, soloSID, in.live[1].warmBody)
}

func (lad *ladder) close() error {
	var errs []error
	for _, d := range []*httpDep{lad.cluster, lad.single} {
		if d != nil {
			errs = append(errs, d.close())
		}
	}
	return errors.Join(errs...)
}

// handler serves one request on the single server without a socket.
func (lad *ladder) handler(method, path string, body []byte) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	lad.single.nodes[0].srv.ServeHTTP(rec, req)
	dt := time.Since(t0)
	if rec.Code != http.StatusOK {
		return dt, fmt.Errorf("handler %s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return dt, nil
}

// request maps an op to its HTTP form for the given session.
func (lad *ladder) request(o op, sid string) (method, path string, body []byte) {
	switch o.kind {
	case opQuery:
		return http.MethodPost, "/v1/match", lad.in.pool[o.arg].body
	case opPredict:
		return http.MethodGet, "/v1/sessions/" + sid + "/predict?delta=200ms", nil
	default:
		return http.MethodPost, "/v1/sessions/" + sid + "/samples", lad.in.live[0].batches[o.arg]
	}
}

// peel replays client 0's op list (warm-up first, discarded) at every
// depth and reports the layer rows. Spans go to tr.
func (lad *ladder) peel(tr *tracer, L *layerSet) (t tally) {
	in := lad.in
	client := lad.cluster.client
	fail := t.fail
	// lat[depth][kind] collects latencies. share[row][kind] collects,
	// per op, the share of its end-to-end latency each rung added: row 0
	// is the core call, row r the step from depth r-1 to depth r.
	var lat [4][numKinds][]float64
	var share [4][numKinds][]float64
	var all [2][]float64 // server overhead and HTTP round trip over every kind
	var legs, mergeOver, gwMiss, gwHit, replOver []float64
	var backendReqs float64
	hits, misses := 0, 0

	warm := len(in.warmOps[0])
	list := append(append([]op{}, in.warmOps[0]...), in.ops[0]...)
	for i, o := range list {
		keep := i >= warm
		t.attempted++
		start := time.Now()
		tr.beginOp(0, "peel."+kindNames[o.kind], start)
		span := func(name string, at time.Time, d time.Duration) { tr.child(0, name, at, d) }
		var d [4]time.Duration
		var err error

		at := time.Now()
		if d[0], err = lad.core.run(0, o); err != nil {
			fail(err)
		}
		span("core", at, d[0])

		method, path, body := lad.request(o, twinSID)
		at = time.Now()
		if d[1], err = lad.handler(method, path, body); err != nil {
			fail(err)
		}
		span("server.handler", at, d[1])

		method, path, body = lad.request(o, in.live[0].sid)
		at = time.Now()
		if _, _, err = doHTTP(client, method, lad.single.base+path, body, http.StatusOK); err != nil {
			fail(err)
		}
		d[2] = time.Since(at)
		span("http.single", at, d[2])

		var slowest time.Duration
		if o.kind == opQuery {
			for _, nd := range lad.cluster.nodes {
				at = time.Now()
				if _, _, err = doHTTP(client, method, nd.url+path, body, http.StatusOK); err != nil {
					fail(err)
				}
				leg := time.Since(at)
				span("shard.leg", at, leg)
				slowest = max(slowest, leg)
			}
		}
		before := counter("stsmatch_gateway_backend_requests_total")
		at = time.Now()
		_, hdr, err := doHTTP(client, method, lad.cluster.base+path, body, http.StatusOK)
		if err != nil {
			fail(err)
		}
		d[3] = time.Since(at)
		span("http.gateway", at, d[3])
		reqs := counter("stsmatch_gateway_backend_requests_total") - before
		if o.kind == opQuery {
			// The same question again at once: nothing was written in
			// between, so the gateway answers it from its cache.
			at = time.Now()
			_, again, err := doHTTP(client, method, lad.cluster.base+path, body, http.StatusOK)
			if err != nil {
				fail(err)
			}
			reask := time.Since(at)
			span("http.gateway.cached", at, reask)
			if keep && again.Get("X-Cache") == "hit" {
				gwHit = append(gwHit, us(reask))
			}
		}
		tr.endOp(0, time.Since(start))

		if o.kind == opIngest {
			// The same batch of the second live session, acknowledged at
			// R=2 and at R=1 by the same shard.
			primary, _, _ := lad.cluster.gw.SessionPlacement(in.live[1].sid)
			batch := in.live[1].batches[o.arg]
			at = time.Now()
			if _, _, err := doHTTP(client, http.MethodPost, primary+"/v1/sessions/"+in.live[1].sid+"/samples", batch, http.StatusOK); err != nil {
				fail(err)
			}
			r2 := time.Since(at)
			at = time.Now()
			if _, _, err := doHTTP(client, http.MethodPost, primary+"/v1/sessions/"+soloSID+"/samples", batch, http.StatusOK); err != nil {
				fail(err)
			}
			r1 := time.Since(at)
			if keep {
				replOver = append(replOver, us(r2)-us(r1))
			}
		}
		if !keep {
			continue
		}
		k := o.kind
		if k == opQuery {
			backendReqs += reqs
			if hdr.Get("X-Cache") == "hit" {
				// A hit never reaches the depths below the gateway: it
				// stays out of the rows.
				hits++
				continue
			}
			misses++
			gwMiss = append(gwMiss, us(d[3]))
			legs = append(legs, us(slowest))
			mergeOver = append(mergeOver, us(d[3])-us(slowest))
		}
		for depth := range d {
			lat[depth][k] = append(lat[depth][k], us(d[depth]))
		}
		share[0][k] = append(share[0][k], us(d[0])/us(d[3]))
		for row := 1; row < len(share); row++ {
			share[row][k] = append(share[row][k], (us(d[row])-us(d[row-1]))/us(d[3]))
		}
		all[0] = append(all[0], us(d[1])-us(d[0]))
		all[1] = append(all[1], us(d[2])-us(d[1]))
	}

	L.add("core.topk_us", median(lat[0][opQuery]), "us")
	L.add("core.predict_us", median(lat[0][opPredict]), "us")
	L.add("core.ingest_batch_us", median(lat[0][opIngest]), "us")
	L.add("server.match_handler_us", median(lat[1][opQuery]), "us")
	L.add("server.predict_handler_us", median(lat[1][opPredict]), "us")
	L.add("server.ingest_handler_us", median(lat[1][opIngest]), "us")
	L.add("server.overhead_us", median(all[0]), "us")
	L.add("server.http_roundtrip_us", median(all[1]), "us")
	// A row is the median share that rung has of an op, scaled to the
	// median end-to-end latency: ops of one kind differ several-fold in
	// size (a query's cost follows its state order's frequency), and
	// shares compare them where microseconds would not. Per op the
	// shares sum to 1 exactly; their medians need not, and by how much
	// they miss is the residual.
	worst := 0.0
	rows := [4]string{"core_us", "server_us", "http_us", "gateway_us"}
	for k := opKind(0); k < numKinds; k++ {
		name := "peel." + kindNames[k] + "."
		whole := median(lat[3][k])
		sum := 0.0
		for row := range share {
			v := median(share[row][k])
			L.add(name+rows[row], v*whole, "us")
			sum += v
		}
		L.add(name+"end_to_end_us", whole, "us")
		residual := 100 * math.Abs(sum-1)
		L.add(name+"residual_pct", residual, "%")
		worst = max(worst, residual)
	}
	L.add("peel_residual_pct", worst, "%")
	L.add("shard.gateway_match_us", median(gwMiss), "us")
	L.add("shard.scatter_leg_us", median(legs), "us")
	L.add("shard.merge_overhead_us", median(mergeOver), "us")
	L.add("shard.backend_requests_per_match", backendReqs/float64(hits+misses), "count")
	L.add("shard.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	L.add("shard.cache_hit_us", median(gwHit), "us")
	L.add("shard.replication_overhead_us", median(replOver), "us")
	return t
}

// tracedShare is the part of an untraced run's rounds the traced run
// spends on each side of its traced/untraced comparison.
const tracedShare = 6

// runTraced is the separate run that produces the per-layer numbers.
// It compares identical rounds with tracing off and on (the ratio is
// the tracing overhead), measures each layer from outside, peels the
// ladder, and writes the spans it recorded to bench/out.
func runTraced(in *inputs, o options, w io.Writer) ([]metric, tally, error) {
	var L layerSet
	var t tally

	n := max(2, in.spec.rounds(o.seconds)/tracedShare)
	var plain, traced []roundResult
	kept := newTracer() // the first traced round's spans go to the file
	for i := 0; i < n; i++ {
		r, err := runRound(in, i, nil)
		if err != nil {
			return nil, t, err
		}
		t.add(r.tally)
		plain = append(plain, r)
		tr := kept
		if i > 0 {
			tr = newTracer()
		}
		if r, err = runRound(in, i, tr); err != nil {
			return nil, t, err
		}
		t.add(r.tally)
		traced = append(traced, r)
	}
	L.add("obs.trace_overhead_ratio", stretchRate(in, traced)/stretchRate(in, plain), "ratio")
	best := bestLatencies(in, plain)
	L.add("diag.query_p99_us", percentile(best[opQuery], 0.99), "us")
	L.add("diag.predict_p99_us", percentile(best[opPredict], 0.99), "us")
	L.add("diag.ingest_p95_us", percentile(best[opIngest], 0.95), "us")
	for _, c := range roundColumns(in, plain) {
		L.add("diag.round_iqr_rel."+c.name, iqrShare(c.xs), "ratio")
	}

	lin, err := in.ladderInputs()
	if err != nil {
		return nil, t, err
	}
	lad, err := buildLadder(lin)
	if err != nil {
		return nil, t, fmt.Errorf("%s: building the ladder: %w", in.spec.name, err)
	}
	defer func() {
		if cerr := lad.close(); cerr != nil {
			fmt.Fprintf(w, "# %s: closing the ladder: %v\n", in.spec.name, cerr)
		}
	}()
	if err := layerBenches(lad, &L); err != nil {
		return nil, t, fmt.Errorf("%s: layer benches: %w", in.spec.name, err)
	}
	t.add(lad.peel(kept, &L))
	t.add(lad.core.verifyQueries()) // only the first live session was replayed

	path, err := writeTrace(o.out, in.spec.name, o.seed, kept.spans, L.list)
	if err != nil {
		return nil, t, err
	}
	fmt.Fprintf(w, "# %s: traced run: %d+%d rounds, %d spans in %s\n", in.spec.name, n, n, len(kept.spans), path)
	return L.list, t, nil
}
