package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/server"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// unasked fails the test for every stream of the databases that holds a
// Seq() memo.
func unasked(t *testing.T, after string, dbs ...*store.DB) {
	t.Helper()
	for _, db := range dbs {
		for _, st := range db.Streams() {
			if st.Materialised() {
				t.Errorf("after %s: stream %s/%s was materialised", after, st.PatientID, st.SessionID)
			}
		}
	}
}

// TestNoMaterialisationOnServedPaths: searching, predicting, evaluating
// a standing query and rendering its event, writing a snapshot,
// recovering from it, and bootstrapping a follower all read a stream's
// columns; none of them leaves a plr.Sequence behind on any stream. Only
// Seq() does, on the stream it is asked of.
func TestNoMaterialisationOnServedPaths(t *testing.T) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 4, 2, 120
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	unasked(t, "the build", db)

	// Search and the four prediction folds.
	live := db.Streams()[0]
	pattern := live.Window(live.Len()-12, 10)
	q := core.NewQuery(pattern, live.PatientID, live.SessionID)
	params := core.DefaultParams()
	params.DistThreshold *= 4
	m, err := core.NewMatcher(db, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopK(q, 10, nil); err != nil {
		t.Fatal(err)
	}
	found, err := m.FindSimilar(q, nil)
	if err != nil || len(found) < core.MinMatchesForPrediction {
		t.Fatalf("fixture: FindSimilar = %d matches, %v", len(found), err)
	}
	_, errPos := m.PredictPosition(q, found, 0.2, 0)
	_, errDisp := m.PredictDisplacement(q, found, 0.1, 0.3, 0)
	_, errSeg := m.PredictNextSegment(q, found, 0)
	if err := errors.Join(errPos, errDisp, errSeg); err != nil {
		t.Fatalf("fixture: a prediction fold found nothing to fold: %v", err)
	}
	unasked(t, "search and prediction", db)

	// A standing query over the live stream's patient, and an arrival that
	// repeats the pattern: the evaluation emits an event with its end time.
	subs := subscribe.NewManager(params, 0)
	db.AddMutationHook(subs.OnMutation)
	if _, err := subs.Register(&wal.SubState{ID: "standing", PatientID: live.PatientID, Pattern: pattern}, db); err != nil {
		t.Fatal(err)
	}
	arrival := live.Window(live.Len()-14, 14)
	shift := arrival[13].T - arrival[0].T + 1
	for i := range arrival {
		arrival[i].T += shift
	}
	if err := live.Append(arrival...); err != nil {
		t.Fatal(err)
	}
	if subs.Drain(context.Background(), db) == 0 {
		t.Fatal("fixture: the repeated pattern emitted no event")
	}
	unasked(t, "a standing evaluation", db)

	// Snapshot write (the WAL seeds a fresh directory with one) and
	// recovery from it.
	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir}, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log, res, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if res.DB.NumVertices() != db.NumVertices() {
		t.Fatalf("recovered %d vertices of %d", res.DB.NumVertices(), db.NumVertices())
	}
	unasked(t, "snapshot and recovery", db, res.DB)

	// Follower bootstrap: B follows A's live session, is promoted with C
	// as its replica, and C — empty — is caught up by a snapshot of B's
	// stream on B's next ingest.
	var nodes [3]*store.DB
	var urls [3]string
	for i := range nodes {
		nodes[i] = store.NewDB()
		srv, err := server.NewWithOptions(nodes[i], core.DefaultParams(), fsm.DefaultConfig(), server.Options{AdvertiseURL: "http://node"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		urls[i] = ts.URL
	}
	post := func(url string, body any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 13)
	if err != nil {
		t.Fatal(err)
	}
	var samples []server.SampleIn
	for _, s := range gen.Generate(60) {
		samples = append(samples, server.SampleIn{T: s.T, Pos: s.Pos})
	}
	post(urls[0]+"/v1/sessions", server.CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: urls[1:2]})
	post(urls[0]+"/v1/sessions/S01/samples", samples[:len(samples)/2])
	post(urls[1]+"/v1/sessions/S01/promote", server.PromoteRequest{Replicate: urls[2:]})
	post(urls[1]+"/v1/sessions/S01/samples", samples[len(samples)/2:])
	if got, want := nodes[2].NumVertices(), nodes[1].NumVertices(); got == 0 || got != want {
		t.Fatalf("fixture: the bootstrapped follower holds %d vertices, its primary %d", got, want)
	}
	unasked(t, "a follower bootstrap", nodes[:]...)

	// Seq() is what materialises, and only the stream asked.
	if seq := live.Seq(); len(seq) != live.Len() || !live.Materialised() {
		t.Fatalf("Seq() returned %d of %d vertices, materialised=%v", len(seq), live.Len(), live.Materialised())
	}
	for _, st := range db.Streams()[1:] {
		if st.Materialised() {
			t.Errorf("asking %s/%s materialised %s/%s", live.PatientID, live.SessionID, st.PatientID, st.SessionID)
		}
	}
}
