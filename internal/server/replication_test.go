package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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

	// Primary healthz shows a drained backlog.
	hz, _ := getJSON[HealthzResponse](t, primary.URL+"/v1/healthz")
	if hz.Replication == nil || hz.Replication.PrimarySessions != 1 {
		t.Fatalf("primary replication health = %+v", hz.Replication)
	}
	if hz.Replication.MaxLagRecords != 0 {
		t.Errorf("lag = %d after synchronous flush, want 0", hz.Replication.MaxLagRecords)
	}
	_ = primarySrv
}

// TestReplLagGaugeReportsWorstLink: stsmatch_repl_lag_records is the
// worst backlog over every session and link, the number healthz reports
// as maxLagRecords, so one session's clean flush does not hide another
// session whose follower is down.
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

	hz, _ := getJSON[HealthzResponse](t, primary.URL+"/v1/healthz")
	if hz.Replication == nil || hz.Replication.MaxLagRecords == 0 {
		t.Fatalf("healthz replication = %+v, want S01's backlog", hz.Replication)
	}
	if got := scrapeMetrics(t, primary.URL)["stsmatch_repl_lag_records"]; got != float64(hz.Replication.MaxLagRecords) {
		t.Errorf("stsmatch_repl_lag_records = %v after S02's clean flush, want S01's backlog %d", got, hz.Replication.MaxLagRecords)
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
// a gap answers 409 without applying anything, a snapshot re-anchors,
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

	// Snapshot catch-up at an arbitrary sequence: accepted, re-anchors.
	snap := wal.Record{Type: wal.TypeReplicaSnapshot, PatientID: "PG", SessionID: "SG",
		Vertices: verts(0, 6), Samples: 60, AnchorT: 5, AnchorPos: []float64{5}}
	resp = post(batch(1, 40, snap))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot batch status %d", resp.StatusCode)
	}
	if ack := decode[ReplicateResponse](t, resp); ack.NextSeq != 41 {
		t.Fatalf("post-snapshot nextSeq = %d, want 41", ack.NextSeq)
	}
	if got := srv.db.NumVertices(); got != 6 {
		t.Fatalf("snapshot left %d vertices, want 6", got)
	}

	// Stale epoch after the follower saw epoch 1 via... bump epoch first.
	snap2 := snap
	snap2.Vertices = verts(0, 7)
	if resp := post(batch(3, 1, snap2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch-3 snapshot status %d", resp.StatusCode)
	}
	resp = post(batch(2, 50, wal.Record{Type: wal.TypeVertexAppend, PatientID: "PG", SessionID: "SG", Vertices: verts(20, 1)}))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale-epoch batch status %d, want 412", resp.StatusCode)
	}
}

// TestPromoteFailsOver: after promotion the replica serves the session
// as primary — same PLR, continued ingestion — and fences the deposed
// primary's further shipments.
func TestPromoteFailsOver(t *testing.T) {
	_, replica := newReplServer(t, Options{})
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replica.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 11, 60)
	half := len(samples) / 2
	ingestBatches(t, primary.URL, "S01", samples[:half], 256)

	primaryPLR, _ := getJSON[PLRResponse](t, primary.URL+"/v1/sessions/S01/plr")

	// Fail over to the replica.
	resp = postJSON(t, replica.URL+"/v1/sessions/S01/promote", PromoteRequest{})
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
	promotedPLR, code := getJSON[PLRResponse](t, replica.URL+"/v1/sessions/S01/plr")
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
	resp = postJSON(t, replica.URL+"/v1/sessions/S01/promote", PromoteRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-promote status %d", resp.StatusCode)
	}

	// The deposed primary's next shipment is fenced: the ingest still
	// succeeds locally but reports the replica error.
	resp = postJSON(t, primary.URL+"/v1/sessions/S01/samples", samples[half:half+64])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deposed ingest status %d", resp.StatusCode)
	}
	if sr := decode[SamplesResponse](t, resp); len(sr.ReplicaErrors) == 0 {
		t.Error("deposed primary's ingest reported no replica errors")
	}

	// The new primary keeps accepting the stream where it left off.
	var cont []SampleIn
	for _, s := range samples[half:] {
		if s.T > promotedPLR.Vertices[len(promotedPLR.Vertices)-1].T {
			cont = append(cont, s)
		}
	}
	resp = postJSON(t, replica.URL+"/v1/sessions/S01/samples", cont)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover ingest status %d", resp.StatusCode)
	}
	if sr := decode[SamplesResponse](t, resp); sr.Accepted != len(cont) {
		t.Errorf("post-failover Accepted = %d, want %d", sr.Accepted, len(cont))
	}
}

// TestPromotedPrimaryLeadsWithSnapshot: a promoted primary given new
// replica targets brings them current via snapshot, so a second
// failover would lose nothing either.
func TestPromotedPrimaryLeadsWithSnapshot(t *testing.T) {
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
	// caught up by snapshot.
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
		t.Fatalf("snapshot catch-up left C at %d vertices, B has %d", cStats.Vertices, bStats.Vertices)
	}
	if len(cStats.Replicas) != 1 || cStats.Replicas[0].SessionID != "S01" {
		t.Fatalf("C inventory = %+v", cStats.Replicas)
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
	hz, _ := getJSON[HealthzResponse](t, follower2.URL+"/v1/healthz")
	if hz.OpenSessions != 0 {
		t.Errorf("replicated session resurrected as live: OpenSessions = %d", hz.OpenSessions)
	}
	if hz.Vertices != stats.Vertices {
		t.Errorf("recovered %d vertices, follower had %d", hz.Vertices, stats.Vertices)
	}
}
