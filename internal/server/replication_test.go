package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/wal"
)

// newReplServer builds an in-memory server and its test listener.
func newReplServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func respSamples(t *testing.T, seed int64, seconds float64) []SampleIn {
	t.Helper()
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), seed)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(seconds)
	out := make([]SampleIn, len(samples))
	for i, s := range samples {
		out[i] = SampleIn{T: s.T, Pos: s.Pos}
	}
	return out
}

func ingestBatches(t *testing.T, baseURL, sid string, samples []SampleIn, batchSize int) {
	t.Helper()
	for i := 0; i < len(samples); i += batchSize {
		end := min(i+batchSize, len(samples))
		resp := postJSON(t, baseURL+"/v1/sessions/"+sid+"/samples", samples[i:end])
		sr := decode[SamplesResponse](t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		if len(sr.ReplicaErrors) > 0 {
			t.Fatalf("ingest reported replica errors: %v", sr.ReplicaErrors)
		}
	}
}

// TestReplicationShipsStream: a session created with a replica target
// is mirrored vertex-for-vertex on the follower, and the follower
// reports it as a replica, not a live session.
func TestReplicationShipsStream(t *testing.T) {
	_, replica := newReplServer(t, Options{})
	primarySrv, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replica.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	ingestBatches(t, primary.URL, "S01", respSamples(t, 7, 40), 256)

	primaryPLR, code := getJSON[PLRResponse](t, primary.URL+"/v1/sessions/S01/plr")
	if code != http.StatusOK {
		t.Fatalf("primary plr status %d", code)
	}
	if len(primaryPLR.Vertices) == 0 {
		t.Fatal("primary produced no vertices")
	}

	// The follower holds the identical stream...
	stats, code := getJSON[ShardStatsResponse](t, replica.URL+"/v1/shard/stats")
	if code != http.StatusOK {
		t.Fatalf("replica stats status %d", code)
	}
	if len(stats.Sessions) != 0 {
		t.Errorf("replica lists %d live sessions, want 0", len(stats.Sessions))
	}
	if len(stats.Replicas) != 1 || stats.Replicas[0].SessionID != "S01" {
		t.Fatalf("replica inventory = %+v, want S01", stats.Replicas)
	}
	if stats.Vertices != len(primaryPLR.Vertices) {
		t.Errorf("replica holds %d vertices, primary %d", stats.Vertices, len(primaryPLR.Vertices))
	}

	// ...and answers /v1/match identically to the primary.
	q := MatchRequest{Seq: primaryPLR.Vertices[len(primaryPLR.Vertices)-6:], PatientID: "P01", SessionID: "S01"}
	mp := decode[MatchResponse](t, postJSON(t, primary.URL+"/v1/match", q))
	mr := decode[MatchResponse](t, postJSON(t, replica.URL+"/v1/match", q))
	if len(mp.Matches) == 0 {
		t.Fatal("primary match returned nothing")
	}
	if len(mp.Matches) != len(mr.Matches) {
		t.Fatalf("match count: primary %d, replica %d", len(mp.Matches), len(mr.Matches))
	}
	for i := range mp.Matches {
		if mp.Matches[i] != mr.Matches[i] {
			t.Fatalf("match %d differs: primary %+v, replica %+v", i, mp.Matches[i], mr.Matches[i])
		}
	}

	// The primary ships S01 and its backlog is drained.
	pStats, _ := getJSON[ShardStatsResponse](t, primary.URL+"/v1/shard/stats")
	if len(pStats.Sessions) != 1 || len(pStats.Sessions[0].Links) == 0 {
		t.Fatalf("primary sessions = %+v, want S01 shipping", pStats.Sessions)
	}
	if n := linkBacklog(pStats); n != 0 {
		t.Errorf("links' backlog = %d after synchronous flush, want 0", n)
	}
	if got := scrapeMetrics(t, primary.URL)["stsmatch_repl_lag_records"]; got != 0 {
		t.Errorf("stsmatch_repl_lag_records = %v after synchronous flush, want 0", got)
	}
	_ = primarySrv
}

// linkBacklog is the worst unacknowledged backlog over the links of
// st's sessions, counted as stsmatch_repl_lag_records counts it: a
// link's shipped-but-unacked records, plus one for a pending snapshot.
func linkBacklog(st ShardStatsResponse) int {
	worst := 0
	for _, sess := range st.Sessions {
		for _, l := range sess.Links {
			n := int(l.ShippedSeq - l.AckedSeq)
			if l.SnapshotPending {
				n++
			}
			worst = max(worst, n)
		}
	}
	return worst
}

// TestReplLagGaugeReportsWorstLink: stsmatch_repl_lag_records is the
// worst backlog over every session and link of /v1/shard/stats, so one
// session's clean flush does not hide another session whose follower
// is down.
func TestReplLagGaugeReportsWorstLink(t *testing.T) {
	_, replica := newReplServer(t, Options{})
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	// Created last, so its gauge is the one the registry serves.
	primarySrv, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})
	for sid, target := range map[string]string{"S01": down.URL, "S02": replica.URL} {
		resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
			PatientID: "P" + sid, SessionID: sid, Replicate: []string{target},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s status %d", sid, resp.StatusCode)
		}
	}
	samples := respSamples(t, 13, 30)
	resp := postJSON(t, primary.URL+"/v1/sessions/S01/samples", samples)
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) == 0 {
		t.Fatalf("ingest to a session whose follower is down: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}
	ingestBatches(t, primary.URL, "S02", samples, 256)

	pStats, _ := getJSON[ShardStatsResponse](t, primary.URL+"/v1/shard/stats")
	backlog := linkBacklog(pStats)
	if backlog == 0 {
		t.Fatalf("primary sessions = %+v, want S01's backlog on its link", pStats.Sessions)
	}
	if got := scrapeMetrics(t, primary.URL)["stsmatch_repl_lag_records"]; got != float64(backlog) {
		t.Errorf("stsmatch_repl_lag_records = %v after S02's clean flush, want S01's backlog %d", got, backlog)
	}

	// A scrape reads the backlog without the session lock, which a
	// snapshot holds while it writes.
	primarySrv.mu.Lock()
	defer primarySrv.mu.Unlock()
	scraped := make(chan struct{})
	go func() {
		obs.Default().Gather()
		close(scraped)
	}()
	select {
	case <-scraped:
	case <-time.After(10 * time.Second):
		t.Fatal("a scrape waited on the session lock")
	}
}

// TestReplicateEndpointGapAndFencing drives /v1/replicate directly:
// a gap answers 409 without applying anything, a catch-up re-anchors,
// and a stale epoch answers 412.
func TestReplicateEndpointGapAndFencing(t *testing.T) {
	srv, ts := newReplServer(t, Options{})

	post := func(b wal.Batch) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/replicate", "application/octet-stream",
			bytes.NewReader(wal.EncodeBatch(b)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	verts := func(t0 float64, n int) plr.Sequence {
		vs := make(plr.Sequence, n)
		for i := range vs {
			vs[i] = plr.Vertex{T: t0 + float64(i), Pos: []float64{float64(i)}, State: plr.IN}
		}
		return vs
	}
	batch := func(epoch, firstSeq uint64, recs ...wal.Record) wal.Batch {
		return wal.Batch{Source: "http://primary", SessionID: "SG", PatientID: "PG",
			Epoch: epoch, FirstSeq: firstSeq, Records: recs}
	}
	// Every link opens with a catch-up, led by a stream-open, at seq 1.
	open := wal.Record{Type: wal.TypeStreamOpen, PatientID: "PG", SessionID: "SG"}

	// Contiguous from scratch: accepted.
	resp := post(batch(1, 1, open, wal.Record{Type: wal.TypeVertexAppend, PatientID: "PG", SessionID: "SG", Vertices: verts(0, 3)}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial batch status %d", resp.StatusCode)
	}
	ack := decode[ReplicateResponse](t, resp)
	if ack.NextSeq != 3 || ack.Applied != 2 {
		t.Fatalf("ack = %+v, want nextSeq 3 applied 2", ack)
	}

	// Gap (skipping seq 3): 409, nothing applied.
	before := srv.db.NumVertices()
	resp = post(batch(1, 5, wal.Record{Type: wal.TypeVertexAppend, PatientID: "PG", SessionID: "SG", Vertices: verts(10, 2)}))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gapped batch status %d, want 409", resp.StatusCode)
	}
	if got := srv.db.NumVertices(); got != before {
		t.Fatalf("gapped batch applied records: %d -> %d vertices", before, got)
	}

	// Catch-up at an arbitrary sequence: accepted, re-anchors.
	whole := wal.Record{Type: wal.TypeVertexAppend, PatientID: "PG", SessionID: "SG", Vertices: verts(0, 6)}
	anchor := wal.Record{Type: wal.TypeSessionAnchor, PatientID: "PG", SessionID: "SG",
		Samples: 60, AnchorT: 5, AnchorPos: []float64{5}}
	resp = post(batch(1, 40, open, whole, anchor))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catch-up batch status %d", resp.StatusCode)
	}
	if ack := decode[ReplicateResponse](t, resp); ack.NextSeq != 43 {
		t.Fatalf("post-catch-up nextSeq = %d, want 43", ack.NextSeq)
	}
	if got := srv.db.NumVertices(); got != 6 {
		t.Fatalf("catch-up left %d vertices, want 6", got)
	}

	// Stale epoch after the follower saw epoch 1 via... bump epoch first.
	whole.Vertices = verts(0, 7)
	if resp := post(batch(3, 1, open, whole, anchor)); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch-3 catch-up status %d", resp.StatusCode)
	}
	resp = post(batch(2, 50, wal.Record{Type: wal.TypeVertexAppend, PatientID: "PG", SessionID: "SG", Vertices: verts(20, 1)}))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale-epoch batch status %d, want 412", resp.StatusCode)
	}
}

// TestPromoteFailsOver: after promotion the replica serves the session
// as primary — same PLR, continued ingestion — and the deposed primary
// yields to it when its next shipment meets the higher epoch.
func TestPromoteFailsOver(t *testing.T) {
	_, replicaURL := newAdvertised(t, Options{}) // the 412 names it, so it is an owner to yield to
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replicaURL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 11, 60)
	half := len(samples) / 2
	ingestBatches(t, primary.URL, "S01", samples[:half], 256)

	primaryPLR, _ := getJSON[PLRResponse](t, primary.URL+"/v1/sessions/S01/plr")

	// Fail over to the replica.
	resp = postJSON(t, replicaURL+"/v1/sessions/S01/promote", PromoteRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	pr := decode[PromoteResponse](t, resp)
	if pr.Epoch != 2 {
		t.Errorf("promoted epoch = %d, want 2", pr.Epoch)
	}
	if pr.Vertices != len(primaryPLR.Vertices) {
		t.Errorf("promoted with %d vertices, primary had %d", pr.Vertices, len(primaryPLR.Vertices))
	}

	// Identical PLR on the new primary.
	promotedPLR, code := getJSON[PLRResponse](t, replicaURL+"/v1/sessions/S01/plr")
	if code != http.StatusOK {
		t.Fatalf("promoted plr status %d", code)
	}
	if len(promotedPLR.Vertices) != len(primaryPLR.Vertices) {
		t.Fatalf("promoted PLR has %d vertices, want %d", len(promotedPLR.Vertices), len(primaryPLR.Vertices))
	}
	for i, v := range primaryPLR.Vertices {
		w := promotedPLR.Vertices[i]
		if v.T != w.T || v.State != w.State {
			t.Fatalf("vertex %d differs after promotion: %+v vs %+v", i, v, w)
		}
	}

	// Promotion is idempotent (a gateway retry converges).
	resp = postJSON(t, replicaURL+"/v1/sessions/S01/promote", PromoteRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-promote status %d", resp.StatusCode)
	}

	// The deposed primary's next shipment meets the higher epoch, and
	// the promoted replica holds every vertex acked before it: the old
	// primary yields. The ingest is not acknowledged; it answers like a
	// migrated session, 410 naming the new owner.
	resp = postJSON(t, primary.URL+"/v1/sessions/S01/samples", samples[half:half+64])
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || resp.Header.Get("Location") != replicaURL {
		t.Fatalf("deposed ingest: status %d, Location %q; want 410 naming %s",
			resp.StatusCode, resp.Header.Get("Location"), replicaURL)
	}

	// The new primary keeps accepting the stream where it left off.
	var cont []SampleIn
	for _, s := range samples[half:] {
		if s.T > promotedPLR.Vertices[len(promotedPLR.Vertices)-1].T {
			cont = append(cont, s)
		}
	}
	resp = postJSON(t, replicaURL+"/v1/sessions/S01/samples", cont)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover ingest status %d", resp.StatusCode)
	}
	if sr := decode[SamplesResponse](t, resp); sr.Accepted != len(cont) {
		t.Errorf("post-failover Accepted = %d, want %d", sr.Accepted, len(cont))
	}
}

// TestPromotedPrimaryLeadsWithCatchup: a promoted primary given new
// replica targets brings them current via catch-up, so a second
// failover would lose nothing either.
func TestPromotedPrimaryLeadsWithCatchup(t *testing.T) {
	_, replicaB := newReplServer(t, Options{})
	_, replicaC := newReplServer(t, Options{})
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replicaB.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 13, 50)
	half := len(samples) / 2
	ingestBatches(t, primary.URL, "S01", samples[:half], 256)

	// Promote B with C as its new replica: C starts empty and must be
	// caught up.
	resp = postJSON(t, replicaB.URL+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{replicaC.URL}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}

	bPLR, _ := getJSON[PLRResponse](t, replicaB.URL+"/v1/sessions/S01/plr")
	var cont []SampleIn
	for _, s := range samples[half:] {
		if s.T > bPLR.Vertices[len(bPLR.Vertices)-1].T {
			cont = append(cont, s)
		}
	}
	resp = postJSON(t, replicaB.URL+"/v1/sessions/S01/samples", cont)
	sr := decode[SamplesResponse](t, resp)
	if resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) > 0 {
		t.Fatalf("promoted ingest: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}

	// C mirrors B.
	bStats, _ := getJSON[ShardStatsResponse](t, replicaB.URL+"/v1/shard/stats")
	cStats, _ := getJSON[ShardStatsResponse](t, replicaC.URL+"/v1/shard/stats")
	if cStats.Vertices != bStats.Vertices {
		t.Fatalf("catch-up left C at %d vertices, B has %d", cStats.Vertices, bStats.Vertices)
	}
	if len(cStats.Replicas) != 1 || cStats.Replicas[0].SessionID != "S01" {
		t.Fatalf("C inventory = %+v", cStats.Replicas)
	}
}

// TestBatchVersion2Refused: a batch an earlier build shipped (version 2,
// a catch-up led by the retired type 6) is answered 400 and nothing of
// it is applied or journaled.
func TestBatchVersion2Refused(t *testing.T) {
	raw, err := os.ReadFile("../wal/testdata/batch-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir)
	resp, err := http.Post(ts.URL+"/v1/replicate", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version-2 batch: status %d, want 400", resp.StatusCode)
	}
	stats, _ := getJSON[ShardStatsResponse](t, ts.URL+"/v1/shard/stats")
	if stats.Patients != 0 || stats.Vertices != 0 || len(stats.Replicas) != 0 {
		t.Fatalf("a refused batch was applied: %+v", stats)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, again := newDurableServer(t, dir)
	if after, _ := getJSON[StatsResponse](t, again.URL+"/v1/stats"); after.Patients != 0 || after.Vertices != 0 {
		t.Fatalf("a refused batch was journaled: %+v", after)
	}
}

// TestReplicateAllowlist: with ReplicateFrom set, shipments from other
// sources are refused.
func TestReplicateAllowlist(t *testing.T) {
	_, ts := newReplServer(t, Options{ReplicateFrom: []string{"http://trusted"}})
	b := wal.Batch{Source: "http://stranger", SessionID: "SX", PatientID: "PX", Epoch: 1, FirstSeq: 1,
		Records: []wal.Record{{Type: wal.TypeStreamOpen, PatientID: "PX", SessionID: "SX"}}}
	resp, err := http.Post(ts.URL+"/v1/replicate", "application/octet-stream",
		bytes.NewReader(wal.EncodeBatch(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("untrusted source status %d, want 403", resp.StatusCode)
	}
}

// TestReplicateRefusesOwnershipRecords: a batch holding a promote or a
// migration record is answered 400 and nothing of it is applied: a
// follower journals what it applies, and such a record would make a
// restart resume the session as this node's.
func TestReplicateRefusesOwnershipRecords(t *testing.T) {
	srv, ts := newReplServer(t, Options{})
	for _, rec := range []wal.Record{
		{Type: wal.TypeReplicaPromote, PatientID: "PX", SessionID: "SX", Epoch: 1},
		{Type: wal.TypeSessionMigrate, PatientID: "PX", SessionID: "SX", Target: "http://b", Phase: wal.MigratePrepare},
	} {
		b := wal.Batch{Source: "http://primary", SessionID: "SX", PatientID: "PX", Epoch: 1, FirstSeq: 1,
			Records: []wal.Record{{Type: wal.TypeStreamOpen, PatientID: "PX", SessionID: "SX"}, rec}}
		resp, err := http.Post(ts.URL+"/v1/replicate", "application/octet-stream", bytes.NewReader(wal.EncodeBatch(b)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch with a %s record: status %d, want 400", rec.Type, resp.StatusCode)
		}
	}
	if n := srv.db.NumPatients(); n != 0 {
		t.Errorf("a refused batch was applied: %d patients", n)
	}
}

// TestFollowerRestartRecoversReplicaAsHistory: a durable follower that
// restarts keeps the replicated stream as history and does not
// resurrect it as a live session.
func TestFollowerRestartRecoversReplicaAsHistory(t *testing.T) {
	dir := t.TempDir()
	_, follower := newDurableServer(t, dir)
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{follower.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	ingestBatches(t, primary.URL, "S01", respSamples(t, 17, 30), 256)

	stats, _ := getJSON[ShardStatsResponse](t, follower.URL+"/v1/shard/stats")
	if stats.Vertices == 0 {
		t.Fatal("follower received nothing before restart")
	}
	follower.Close() // crash the follower

	_, follower2 := newDurableServer(t, dir)
	after, _ := getJSON[StatsResponse](t, follower2.URL+"/v1/stats")
	if after.OpenSessions != 0 {
		t.Errorf("replicated session resurrected as live: OpenSessions = %d", after.OpenSessions)
	}
	if after.Vertices != stats.Vertices {
		t.Errorf("recovered %d vertices, follower had %d", after.Vertices, stats.Vertices)
	}
}

// restartable is a durable node that restarts in place: one listener,
// and so one advertised URL, in front of whichever *Server is current.
type restartable struct {
	t     *testing.T
	dir   string
	peers http.RoundTripper // Options.ReplicateTransport; nil for the default
	ts    *httptest.Server
	srv   atomic.Pointer[Server]
}

func newRestartable(t *testing.T, peers ...http.RoundTripper) *restartable {
	t.Helper()
	n := &restartable{t: t, dir: t.TempDir()}
	if len(peers) > 0 {
		n.peers = peers[0]
	}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.srv.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(n.ts.Close)
	n.start()
	return n
}

// start opens a server on the node's data dir, every append fsynced.
func (n *restartable) start() {
	n.t.Helper()
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{
		DataDir: n.dir, AdvertiseURL: n.ts.URL, ReplicateTransport: n.peers,
	})
	if err != nil {
		n.t.Fatal(err)
	}
	n.srv.Store(srv)
}

// restart reopens the node from its data dir: after a graceful Close
// (recovery reads the final snapshot's manifest), or, with crash, with
// the old server abandoned (recovery replays the journaled records).
func (n *restartable) restart(crash bool) {
	n.t.Helper()
	if !crash {
		if err := n.srv.Load().Close(); err != nil {
			n.t.Fatal(err)
		}
	}
	n.start()
}

// plrLen is the length of a live session's PLR on node url.
func plrLen(t *testing.T, url, sid string) int {
	t.Helper()
	plr, code := getJSON[PLRResponse](t, url+"/v1/sessions/"+sid+"/plr")
	if code != http.StatusOK {
		t.Fatalf("plr on %s: status %d", url, code)
	}
	return len(plr.Vertices)
}

// replicaVertices is how many vertices of session sid follower url
// holds.
func replicaVertices(t *testing.T, url, sid string) int {
	t.Helper()
	stats, _ := getJSON[ShardStatsResponse](t, url+"/v1/shard/stats")
	for _, e := range stats.Replicas {
		if e.SessionID == sid {
			return e.Vertices
		}
	}
	t.Fatalf("%s follows no session %s: %+v", url, sid, stats.Replicas)
	return 0
}

// TestPrimaryRestartKeepsReplicating: a primary restarted in place
// resumes every session with the followers and epoch it journaled and
// re-links each follower snapshot-first, so a follower holds every
// vertex the primary acked after the restart too, and the acks carry no
// replica error. Restarted at epoch 1 and shipping nothing, the primary
// would ack vertices its followers never see; restarted at epoch 1
// after a promotion to 2, every shipment would be fenced.
func TestPrimaryRestartKeepsReplicating(t *testing.T) {
	samples := respSamples(t, 19, 60)
	half := len(samples) / 2

	t.Run("created here", func(t *testing.T) {
		_, follower := newReplServer(t, Options{})
		primary := newRestartable(t)
		resp := postJSON(t, primary.ts.URL+"/v1/sessions", CreateSessionRequest{
			PatientID: "P01", SessionID: "S01", Replicate: []string{follower.URL},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		ingestBatches(t, primary.ts.URL, "S01", samples[:half], 256)
		primary.restart(false)
		ingestBatches(t, primary.ts.URL, "S01", samples[half:], 256)
		acked := plrLen(t, primary.ts.URL, "S01")
		if got := replicaVertices(t, follower.URL, "S01"); got != acked {
			t.Fatalf("follower holds %d vertices, the restarted primary acked %d", got, acked)
		}
	})

	t.Run("promoted, then crashed", func(t *testing.T) {
		_, origin := newReplServer(t, Options{AdvertiseURL: "http://origin"})
		promoted := newRestartable(t)
		_, follower := newReplServer(t, Options{})
		resp := postJSON(t, origin.URL+"/v1/sessions", CreateSessionRequest{
			PatientID: "P01", SessionID: "S01", Replicate: []string{promoted.ts.URL},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		quarter := half / 2
		ingestBatches(t, origin.URL, "S01", samples[:quarter], 256)
		resp = postJSON(t, promoted.ts.URL+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{follower.URL}})
		if pr := decode[PromoteResponse](t, resp); resp.StatusCode != http.StatusOK || pr.Epoch != 2 {
			t.Fatalf("promote: status %d, epoch %d, want 200 at epoch 2", resp.StatusCode, pr.Epoch)
		}
		ingestBatches(t, promoted.ts.URL, "S01", samples[quarter:half], 256)
		promoted.restart(true)
		// ingestBatches fails on any replica error: a restart shipping at
		// epoch 1 would be fenced by the follower's epoch-2 cursor.
		ingestBatches(t, promoted.ts.URL, "S01", samples[half:], 256)
		acked := plrLen(t, promoted.ts.URL, "S01")
		if got := replicaVertices(t, follower.URL, "S01"); got != acked {
			t.Fatalf("follower holds %d vertices, the restarted primary acked %d", got, acked)
		}
		resp = postJSON(t, promoted.ts.URL+"/v1/sessions/S01/promote", PromoteRequest{})
		if pr := decode[PromoteResponse](t, resp); pr.Epoch != 2 {
			t.Errorf("the restarted primary serves at epoch %d, want the journaled 2", pr.Epoch)
		}
	})
}

// TestRepeatedPromoteKeepsEpoch: promoting a session that is primary
// here already answers the epoch it was promoted to, also when it was
// promoted with no followers — a migration that lost the first answer
// journals the second into its commit tombstone.
func TestRepeatedPromoteKeepsEpoch(t *testing.T) {
	_, replica := newReplServer(t, Options{})
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})
	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replica.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	ingestBatches(t, primary.URL, "S01", respSamples(t, 23, 20), 256)
	var epochs []uint64
	for range 2 {
		resp := postJSON(t, replica.URL+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote status %d", resp.StatusCode)
		}
		epochs = append(epochs, decode[PromoteResponse](t, resp).Epoch)
	}
	if epochs[0] == 0 || epochs[1] != epochs[0] {
		t.Fatalf("promote answered epochs %v, want the same non-zero epoch twice", epochs)
	}
}
