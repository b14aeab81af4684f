package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/signal"
)

// predictServer preloads a synthetic cohort of the given size, two
// minutes a session (the generator behind motiongen), into a server with
// the given matcher parameters and opens a live session of
// the first patient, fed the first seconds of fresh motion from that
// patient's profile; it returns the server and a function that feeds
// the live session up to a later second.
func predictServer(t testing.TB, params core.Params, patients, sessions int, seconds float64) (*Server, func(to float64)) {
	t.Helper()
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = patients, sessions, 120
	db, cohort, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(db, params, fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	serveJSON(t, srv, http.MethodPost, "/v1/sessions", CreateSessionRequest{PatientID: cohort[0].Profile.ID, SessionID: "live"}, http.StatusCreated)
	gen, err := signal.NewRespiration(cohort[0].Profile.Base, 5)
	if err != nil {
		t.Fatal(err)
	}
	samples, fed := gen.Generate(seconds), 0
	feed := func(to float64) {
		var batch []SampleIn
		for ; fed < len(samples) && samples[fed].T <= to; fed++ {
			batch = append(batch, SampleIn{T: samples[fed].T, Pos: samples[fed].Pos})
		}
		if len(batch) > 0 {
			serveJSON(t, srv, http.MethodPost, "/v1/sessions/live/samples", batch, http.StatusOK)
		}
	}
	return srv, feed
}

// serveJSON sends one request through the server's handler chain and
// checks its status.
func serveJSON(t testing.TB, srv *Server, method, path string, body any, status int) *httptest.ResponseRecorder {
	t.Helper()
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != status {
		t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, status, rec.Body)
	}
	return rec
}

// legacyPredictBody is /predict as the handler computed it before the
// estimator was one funnel pass: FindSimilarCtx, PredictDisplacement
// over the matches, then a loop for the mean distance, over the same
// snapshot of the session. It returns the status and the body.
func legacyPredictBody(t *testing.T, srv *Server, sid string, delta float64, deltaMS float64) (int, []byte) {
	t.Helper()
	srv.mu.Lock()
	sess := srv.sessions[sid]
	lastT, lastPos, seq := sess.lastT, append([]float64(nil), sess.lastPos...), sess.stream.Seq()
	patientID, sessionID := sess.patientID, sess.sessionID
	srv.mu.Unlock()

	qseq, info := srv.params.DynamicQuery(seq)
	query := core.NewQuery(qseq, patientID, sessionID)
	m, err := core.NewMatcher(srv.db, srv.params)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := m.FindSimilar(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1 := lastT - query.Now
	disp, err := m.PredictDisplacement(query, matches, d1, d1+delta, 0)
	if errors.Is(err, core.ErrNoMatches) {
		return http.StatusConflict, nil
	}
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, len(disp))
	for k := range pos {
		pos[k] = lastPos[k] + disp[k]
	}
	var meanDist float64
	for _, mt := range matches {
		meanDist += mt.Distance
	}
	if len(matches) > 0 {
		meanDist /= float64(len(matches))
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, PredictionResponse{
		Pos:        pos,
		DeltaMS:    deltaMS,
		NumMatches: len(matches),
		MeanDist:   meanDist,
		QueryLen:   len(qseq),
		Stable:     info.Stable,
	})
	return http.StatusOK, rec.Body.Bytes()
}

// TestPredictAnswerUnchanged: over a live session that grows between
// predictions, every /predict body — pos, numMatches, meanDist, queryLen
// and stable — is byte for byte what the three-step computation gives
// on the same snapshot, at horizons short and long.
func TestPredictAnswerUnchanged(t *testing.T) {
	srv, feed := predictServer(t, core.DefaultParams(), 6, 2, 120)
	ok := 0
	for to := 20.0; to <= 120; to += 10 {
		feed(to)
		for _, h := range []struct {
			param   string
			seconds float64
			ms      float64
		}{{"200ms", 0.2, 200}, {"1500ms", 1.5, 1500}} {
			status, want := legacyPredictBody(t, srv, "live", h.seconds, h.ms)
			rec := serveJSON(t, srv, http.MethodGet, "/v1/sessions/live/predict?delta="+h.param, nil, status)
			if status != http.StatusOK {
				continue
			}
			ok++
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("at %vs, delta %s:\n got %s\nwant %s", to, h.param, rec.Body, want)
			}
		}
	}
	if ok < 10 {
		t.Fatalf("only %d predictions answered 200; the fixture should give many", ok)
	}
}

// TestPredictAllocsFlat: a served prediction allocates as often, and
// about as many bytes, over a 48-patient corpus as over a 12-patient
// one, with four times the matches: nothing it allocates grows with
// their number (a Match list did, by 48 bytes a match).
func TestPredictAllocsFlat(t *testing.T) {
	if raceDetector {
		t.Skip("the body and answer pools drop buffers at random under the race detector")
	}
	// One worker: a fanned-out search's goroutines are a cost per worker,
	// and how a search's hits fall between two workers' buffers varies.
	params := core.DefaultParams()
	params.Parallelism = 1
	// One P, as AllocsPerRun has it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs, bytesPer := map[int]float64{}, map[int]uint64{}
	for _, patients := range []int{12, 48} {
		srv, feed := predictServer(t, params, patients, 4, 90)
		feed(90)
		req := httptest.NewRequest(http.MethodGet, "/v1/sessions/live/predict?delta=200ms", nil)
		predict := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%d patients: predict status %d: %s", patients, rec.Code, rec.Body)
			}
		}
		// The corpus build's garbage collected first, so that no
		// collection (which empties the buffer pools) falls among the
		// measured runs; then the server's matcher warmed.
		runtime.GC()
		predict()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 50
		for i := 0; i < runs; i++ {
			predict()
		}
		runtime.ReadMemStats(&after)
		bytesPer[patients] = (after.TotalAlloc - before.TotalAlloc) / runs
		allocs[patients] = testing.AllocsPerRun(runs, predict)
	}
	if allocs[12] != allocs[48] {
		t.Errorf("a served prediction allocates %v times over 12 patients and %v over 48", allocs[12], allocs[48])
	}
	if bytesPer[48] > bytesPer[12]+2048 {
		t.Errorf("a served prediction allocates %d B over 12 patients and %d B over 48", bytesPer[12], bytesPer[48])
	}
}

// TestSampledPredictRecordsFunnel: a served prediction whose caller
// sampled it (-01) is recorded with the search span and every funnel
// stage, the fused estimator's search being the ordinary one.
func TestSampledPredictRecordsFunnel(t *testing.T) {
	srv, feed := predictServer(t, core.DefaultParams(), 4, 2, 60)
	feed(60)
	const traceID = "0123456789abcdef0123456789abcdef"
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/live/predict?delta=200ms", nil)
	req.Header.Set(obs.TraceparentHeader, "00-"+traceID+"-0123456789abcdef-01")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body)
	}
	var names map[string]bool
	for _, td := range srv.Traces().Recent() {
		if td.TraceID == traceID {
			names = spanNames(td)
		}
	}
	for _, name := range []string{"matcher.search", "funnel.state_order", "funnel.self_exclusion",
		"funnel.lb_prune", "funnel.exact_distance", "funnel.topk_merge"} {
		if !names[name] {
			t.Errorf("sampled predict recorded without %s: %v", name, names)
		}
	}
}
