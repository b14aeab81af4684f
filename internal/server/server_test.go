package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

func newTestServer(t *testing.T, db *store.DB) *httptest.Server {
	t.Helper()
	srv, err := NewWithOptions(db, core.DefaultParams(), fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServerSessionLifecycle(t *testing.T) {
	ts := newTestServer(t, nil)

	// Create.
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	// Duplicate rejected.
	resp = postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create status %d, want 409", resp.StatusCode)
	}
	// Missing fields rejected.
	resp = postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty create status %d, want 400", resp.StatusCode)
	}

	// Ingest a full synthetic session in batches.
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(60)
	var last SamplesResponse
	for i := 0; i < len(samples); i += 256 {
		end := min(i+256, len(samples))
		batch := make([]SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		resp := postJSON(t, ts.URL+"/v1/sessions/S01/samples", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		last = decode[SamplesResponse](t, resp)
	}
	if last.TotalSamples != len(samples) {
		t.Errorf("TotalSamples = %d, want %d", last.TotalSamples, len(samples))
	}
	if last.CurrentState == "" {
		t.Error("missing current state")
	}

	// PLR endpoint reflects the segmentation.
	resp, err = http.Get(ts.URL + "/v1/sessions/S01/plr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	plrResp := decode[PLRResponse](t, resp)
	if len(plrResp.Vertices) < 10 {
		t.Errorf("only %d vertices segmented", len(plrResp.Vertices))
	}
	if len(plrResp.StateString) != len(plrResp.Vertices) {
		t.Error("state string length mismatch")
	}

	// Prediction from same-session history.
	resp, err = http.Get(ts.URL + "/v1/sessions/S01/predict?delta=200ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	pred := decode[PredictionResponse](t, resp)
	if len(pred.Pos) != 1 || pred.NumMatches == 0 {
		t.Errorf("prediction = %+v", pred)
	}
	if pred.DeltaMS != 200 {
		t.Errorf("DeltaMS = %v", pred.DeltaMS)
	}

	// Stats.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decode[StatsResponse](t, resp)
	if stats.Patients != 1 || stats.OpenSessions != 1 || stats.Vertices == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestServerWithPreloadedHistory(t *testing.T) {
	// Preloaded sessions from the same patient should make predictions
	// available early in a new session.
	cfg := signal.DefaultCohort()
	cfg.NumPatients = 2
	cfg.SessionsPer = 2
	cfg.SessionDur = 60
	db, cohort, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, db)

	pid := cohort[0].Profile.ID
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: pid, SessionID: "live"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}

	// Feed only ~25 s — too little same-session history, but the
	// preloaded sessions provide matches.
	gen, err := signal.NewRespiration(cohort[0].Profile.Base, 999)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(25)
	batch := make([]SampleIn, len(samples))
	for i, s := range samples {
		batch[i] = SampleIn{T: s.T, Pos: s.Pos}
	}
	resp = postJSON(t, ts.URL+"/v1/sessions/live/samples", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/sessions/live/predict?delta=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with history status %d", resp.StatusCode)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts := newTestServer(t, nil)
	// Unknown session.
	resp := postJSON(t, ts.URL+"/v1/sessions/nope/samples", []SampleIn{{T: 0, Pos: []float64{1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/nope/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown predict status %d", resp.StatusCode)
	}

	// Bad sample ordering.
	postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P", SessionID: "S"})
	resp = postJSON(t, ts.URL+"/v1/sessions/S/samples",
		[]SampleIn{{T: 1, Pos: []float64{1}}, {T: 0.5, Pos: []float64{1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-order status %d", resp.StatusCode)
	}

	// Bad delta.
	resp2, err := http.Get(ts.URL + "/v1/sessions/S/predict?delta=potato")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad delta status %d", resp2.StatusCode)
	}

	// Predict with no history.
	resp3, err := http.Get(ts.URL + "/v1/sessions/S/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("no-history predict status %d", resp3.StatusCode)
	}

	// Malformed JSON bodies.
	r, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed create status %d", r.StatusCode)
	}
}

// TestIngestRefusesDimensionChange: a sample whose dimensionality
// differs from the session's is refused with the batch that holds it
// (400, the batch's prefix kept), and later, valid batches store every
// vertex they close: the session ends holding exactly what segmenting
// the accepted samples gives.
func TestIngestRefusesDimensionChange(t *testing.T) {
	ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P", SessionID: "S"})
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(60)
	const bad, batchLen = 341, 30
	var accepted []plr.Sample
	for i := 0; i < len(samples); i += batchLen {
		batch := make([]SampleIn, 0, batchLen)
		for j, s := range samples[i:min(i+batchLen, len(samples))] {
			if i+j == bad {
				batch = append(batch, SampleIn{T: s.T, Pos: []float64{s.Pos[0], 1}})
				continue
			}
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		resp := postJSON(t, ts.URL+"/v1/sessions/S/samples", batch)
		want := http.StatusOK
		if i <= bad && bad < i+batchLen {
			want = http.StatusBadRequest
			accepted = append(accepted, samples[i:bad]...)
		} else {
			accepted = append(accepted, samples[i:i+len(batch)]...)
		}
		if resp.StatusCode != want {
			t.Fatalf("batch [%d,%d): status %d, want %d", i, i+len(batch), resp.StatusCode, want)
		}
	}

	seg, err := fsm.New(fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want plr.Sequence
	for _, sm := range accepted {
		vs, err := seg.Push(sm)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, vs...)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/S/plr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := decode[PLRResponse](t, resp).Vertices
	if len(got) != len(want) || len(want) < 10 {
		t.Fatalf("session holds %d vertices, segmenting the accepted samples gives %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || got[i].State != want[i].State || len(got[i].Pos) != 1 {
			t.Fatalf("vertex %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestServerRejectsInvalidConfig(t *testing.T) {
	bad := core.DefaultParams()
	bad.DistThreshold = -1
	if _, err := NewWithOptions(nil, bad, fsm.DefaultConfig(), Options{}); err == nil {
		t.Error("invalid params accepted")
	}
	badSeg := fsm.DefaultConfig()
	badSeg.SlopeWindow = 0
	if _, err := NewWithOptions(nil, core.DefaultParams(), badSeg, Options{}); err == nil {
		t.Error("invalid segmenter config accepted")
	}
}

// TestMatcherParallelismOption: the worker count of a served search is
// params.Parallelism and nothing else — what a library caller sets
// reaches every served matcher (streamd leaves it 0, GOMAXPROCS), and a
// negative count is refused.
func TestMatcherParallelismOption(t *testing.T) {
	params := core.DefaultParams()
	params.Parallelism = 3
	srv, err := NewWithOptions(nil, params, fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := srv.matchers.get()
	if m.Params.Parallelism != 3 {
		t.Errorf("served matcher Parallelism = %d, want 3", m.Params.Parallelism)
	}
	srv.matchers.put(m)

	params.Parallelism = -2
	if _, err := NewWithOptions(nil, params, fsm.DefaultConfig(), Options{}); err == nil {
		t.Error("negative Parallelism accepted")
	}
}
