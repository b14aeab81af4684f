package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
)

// newDurableServer builds a Server journaling to dir with fsync on
// every append, so abandoning it without Close models a hard crash
// that loses nothing already acknowledged.
func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{
		DataDir:       dir,
		FsyncInterval: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON[T any](t *testing.T, url string) (T, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var zero T
		return zero, resp.StatusCode
	}
	return decode[T](t, resp), resp.StatusCode
}

// TestCrashRecovery ingests through the public API, abandons the
// server without any shutdown (simulating kill -9), restarts on the
// same data directory, and requires the recovered session to carry
// the exact PLR and prediction state it had before the crash.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	// --- Server A: ingest, then crash. ---
	_, ts := newDurableServer(t, dir)
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(60)
	for i := 0; i < len(samples); i += 256 {
		end := min(i+256, len(samples))
		batch := make([]SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		if resp := postJSON(t, ts.URL+"/v1/sessions/S01/samples", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	beforePLR, code := getJSON[PLRResponse](t, ts.URL+"/v1/sessions/S01/plr")
	if code != http.StatusOK {
		t.Fatalf("plr status %d", code)
	}
	beforePred, code := getJSON[PredictionResponse](t, ts.URL+"/v1/sessions/S01/predict?delta=200ms")
	if code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	// Crash: no srv.Close(), no snapshot — only the WAL survives.
	ts.Close()

	// --- Server B: recover from the same directory. ---
	srv2, ts2 := newDurableServer(t, dir)
	if hz, code := getJSON[HealthzResponse](t, ts2.URL+"/v1/healthz"); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz after durable restart: status %d, %+v", code, hz)
	}
	m := scrapeMetrics(t, ts2.URL)
	if m["stsmatch_wal_recovery_replayed_records"] == 0 {
		t.Error("recovery replayed no records")
	}
	if n := m["stsmatch_wal_recovery_truncated_records"]; n != 0 {
		t.Errorf("clean WAL reported %v truncated records", n)
	}
	if n := srv2.OpenSessions(); n != 1 {
		t.Errorf("OpenSessions = %d after recovery, want 1", n)
	}

	// The recovered PLR must match the pre-crash PLR vertex for vertex.
	afterPLR, code := getJSON[PLRResponse](t, ts2.URL+"/v1/sessions/S01/plr")
	if code != http.StatusOK {
		t.Fatalf("recovered plr status %d", code)
	}
	if len(afterPLR.Vertices) != len(beforePLR.Vertices) {
		t.Fatalf("recovered %d vertices, want %d", len(afterPLR.Vertices), len(beforePLR.Vertices))
	}
	for i, v := range beforePLR.Vertices {
		w := afterPLR.Vertices[i]
		if v.T != w.T || v.State != w.State || len(v.Pos) != len(w.Pos) {
			t.Fatalf("vertex %d mismatch: before %+v, after %+v", i, v, w)
		}
		for d := range v.Pos {
			if v.Pos[d] != w.Pos[d] {
				t.Fatalf("vertex %d dim %d: before %v, after %v", i, d, v.Pos[d], w.Pos[d])
			}
		}
	}
	if afterPLR.StateString != beforePLR.StateString {
		t.Errorf("state string changed across recovery: %q vs %q",
			beforePLR.StateString, afterPLR.StateString)
	}

	// The prediction must match: the anchor record journals the exact
	// last raw observation, so the recovered query is identical.
	afterPred, code := getJSON[PredictionResponse](t, ts2.URL+"/v1/sessions/S01/predict?delta=200ms")
	if code != http.StatusOK {
		t.Fatalf("recovered predict status %d", code)
	}
	if len(afterPred.Pos) != len(beforePred.Pos) {
		t.Fatalf("prediction dims: %d vs %d", len(afterPred.Pos), len(beforePred.Pos))
	}
	for d := range beforePred.Pos {
		if math.Abs(afterPred.Pos[d]-beforePred.Pos[d]) > 1e-9 {
			t.Errorf("prediction dim %d: before %v, after %v", d, beforePred.Pos[d], afterPred.Pos[d])
		}
	}
	if afterPred.NumMatches != beforePred.NumMatches {
		t.Errorf("NumMatches: before %d, after %d", beforePred.NumMatches, afterPred.NumMatches)
	}

	// The resumed session keeps accepting samples where it left off.
	tail := gen.Generate(70)
	var cont []SampleIn
	lastT := samples[len(samples)-1].T
	for _, s := range tail {
		if s.T > lastT {
			cont = append(cont, SampleIn{T: s.T, Pos: s.Pos})
		}
	}
	resp = postJSON(t, ts2.URL+"/v1/sessions/S01/samples", cont)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest status %d", resp.StatusCode)
	}
	sr := decode[SamplesResponse](t, resp)
	if sr.Accepted != len(cont) {
		t.Errorf("post-recovery Accepted = %d, want %d", sr.Accepted, len(cont))
	}
}

// TestRecoverySkipsClosedSessions verifies DELETE is durable: a closed
// session must not resurrect on restart, while its stream stays in the
// database as history.
func TestRecoverySkipsClosedSessions(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir)

	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var batch []SampleIn
	for _, s := range gen.Generate(30) {
		batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions/S01/samples", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/S01", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	ts.Close()

	_, ts2 := newDurableServer(t, dir)
	st, _ := getJSON[StatsResponse](t, ts2.URL+"/v1/stats")
	if st.OpenSessions != 0 {
		t.Errorf("closed session resurrected: OpenSessions = %d", st.OpenSessions)
	}
	if st.Vertices == 0 {
		t.Error("closed session's history lost on recovery")
	}
}

// TestCloseSessionFailsWhenWALFlushFails: with durability on, a close
// whose WAL flush cannot succeed must not claim success — the session
// stays open (retryable) and the response is a 500, never a 200 that a
// crash would contradict.
func TestCloseSessionFailsWhenWALFlushFails(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir)
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	// Close the log out from under the server: every further append
	// fails, modeling an unwritable WAL.
	if err := srv.wal.log.Close(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/S01", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusInternalServerError {
		t.Errorf("delete with failed WAL flush: status %d, want 500", dresp.StatusCode)
	}
	if n := srv.OpenSessions(); n != 1 {
		t.Errorf("session removed despite failed close flush: OpenSessions = %d", n)
	}
}

// TestHealthzUnhealthyAfterWALFailure: a durable node answers 200 "ok"
// while its log accepts writes, and 503 "unhealthy" naming the log's
// error once the log is closed under it: the status the gateway's
// prober ejects a node on. Either body holds only what a probe reads.
func TestHealthzUnhealthyAfterWALFailure(t *testing.T) {
	srv, ts := newDurableServer(t, t.TempDir())
	code, body := healthzBody(t, ts.URL)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy node: status %d, body %v", code, body)
	}
	wantKeys(t, body, "goVersion", "status", "uptimeSeconds", "version")

	if err := srv.wal.log.Close(); err != nil {
		t.Fatal(err)
	}
	code, body = healthzBody(t, ts.URL)
	if code != http.StatusServiceUnavailable || body["status"] != "unhealthy" || body["error"] != "wal: log is closed" {
		t.Fatalf("node with a closed log: status %d, body %v; want 503 unhealthy naming the log's error", code, body)
	}
	wantKeys(t, body, "error", "goVersion", "status", "uptimeSeconds", "version")
}

// healthzBody fetches /v1/healthz at any status, decoded into a map so
// a test sees every key the body carries.
func healthzBody(t *testing.T, baseURL string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decode[map[string]any](t, resp)
}

// wantKeys fails unless body has exactly the keys want, given sorted.
func wantKeys(t *testing.T, body map[string]any, want ...string) {
	t.Helper()
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Errorf("healthz keys %v, want %v", got, want)
	}
}

// TestCloseSessionEndpoint exercises DELETE /v1/sessions/{sid} on an
// in-memory server.
func TestCloseSessionEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)

	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var batch []SampleIn
	for _, s := range gen.Generate(30) {
		batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions/S01/samples", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	del := func() *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/S01", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp = del()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	closed := decode[CloseSessionResponse](t, resp)
	if closed.PatientID != "P01" || closed.SessionID != "S01" {
		t.Errorf("close response = %+v", closed)
	}
	if closed.TotalSamples != len(batch) {
		t.Errorf("TotalSamples = %d, want %d", closed.TotalSamples, len(batch))
	}
	if closed.Vertices == 0 {
		t.Error("close response reports zero vertices")
	}

	// The session is gone: further ingestion and a second DELETE 404.
	if resp := postJSON(t, ts.URL+"/v1/sessions/S01/samples", batch); resp.StatusCode != http.StatusNotFound {
		t.Errorf("ingest after close status %d, want 404", resp.StatusCode)
	}
	if resp := del(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second delete status %d, want 404", resp.StatusCode)
	}
	if st, _ := getJSON[StatsResponse](t, ts.URL+"/v1/stats"); st.OpenSessions != 0 {
		t.Errorf("OpenSessions = %d after close, want 0", st.OpenSessions)
	}
}

// TestDimsLimitSurvivesRecovery: a session is kept only as wide as the
// binary formats read back (plr.MaxDims). A 17-dimension session
// recovers from its snapshot, with nothing left to replay, and a batch
// with a 65-dimension sample is a 400 that stores none of its samples.
func TestDimsLimitSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir)
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(60)
	padded := func(dims int) []SampleIn {
		batch := make([]SampleIn, len(samples))
		for i, s := range samples {
			batch[i] = SampleIn{T: s.T, Pos: append(slices.Clone(s.Pos), make([]float64, dims-len(s.Pos))...)}
		}
		return batch
	}
	for _, sid := range []string{"S17", "S65"} {
		if resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: sid}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s status %d", sid, resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions/S17/samples", padded(17)); resp.StatusCode != http.StatusOK {
		t.Fatalf("17-dimension ingest status %d", resp.StatusCode)
	}
	wide := padded(1)
	wide[len(wide)-1].Pos = make([]float64, plr.MaxDims+1)
	if resp := postJSON(t, ts.URL+"/v1/sessions/S65/samples", wide); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with a %d-dimension sample: status %d, want 400", plr.MaxDims+1, resp.StatusCode)
	}
	// The refused batch left the session untouched: the same samples
	// without the wide one are all new.
	if resp := postJSON(t, ts.URL+"/v1/sessions/S65/samples", wide[:len(wide)-1]); resp.StatusCode != http.StatusOK {
		t.Errorf("narrow ingest status %d", resp.StatusCode)
	} else if sr := decode[SamplesResponse](t, resp); sr.TotalSamples != len(wide)-1 {
		t.Errorf("TotalSamples = %d after the refused batch, want %d", sr.TotalSamples, len(wide)-1)
	}
	before, code := getJSON[PLRResponse](t, ts.URL+"/v1/sessions/S17/plr")
	if code != http.StatusOK || len(before.Vertices) == 0 {
		t.Fatalf("plr status %d, %d vertices", code, len(before.Vertices))
	}
	ts.Close()
	if err := srv.Close(); err != nil { // flushes and writes a snapshot
		t.Fatal(err)
	}

	if snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db")); err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot in the data dir after Close (%v)", err)
	}
	_, ts2 := newDurableServer(t, dir)
	m := scrapeMetrics(t, ts2.URL)
	if r, tr := m["stsmatch_wal_recovery_replayed_records"], m["stsmatch_wal_recovery_truncated_records"]; r != 0 || tr != 0 {
		t.Fatalf("recovery replayed %v and truncated %v records, want everything from the snapshot", r, tr)
	}
	after, code := getJSON[PLRResponse](t, ts2.URL+"/v1/sessions/S17/plr")
	if code != http.StatusOK || !reflect.DeepEqual(after, before) {
		t.Errorf("recovered plr (status %d) differs from the plr before the restart", code)
	}
}

// TestIDLimitSurvivesRecovery: every journalled vertex carries its
// patient and session IDs, so create-session refuses an ID recovery
// would not read back, and one at the limit survives a crash.
func TestIDLimitSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir)
	long := strings.Repeat("p", binfmt.MaxIDBytes)
	for _, req := range []CreateSessionRequest{
		{PatientID: long + "p", SessionID: "S1"},
		{PatientID: "P1", SessionID: long + "s"},
	} {
		if resp := postJSON(t, ts.URL+"/v1/sessions", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create with a %d-byte ID: status %d, want 400", binfmt.MaxIDBytes+1, resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: long, SessionID: "S1"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with a %d-byte ID: status %d", binfmt.MaxIDBytes, resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var batch []SampleIn
	for _, s := range gen.Generate(20) {
		batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
	}
	if resp := postJSON(t, ts.URL+"/v1/sessions/S1/samples", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	before, _ := getJSON[StatsResponse](t, ts.URL+"/v1/stats")
	if before.Patients != 1 || before.Vertices == 0 {
		t.Fatalf("stats %+v, want one patient with vertices", before)
	}
	ts.Close() // crash: only the WAL survives

	_, ts2 := newDurableServer(t, dir)
	if n := scrapeMetrics(t, ts2.URL)["stsmatch_wal_recovery_truncated_records"]; n != 0 {
		t.Fatalf("recovery truncated %v records, want none", n)
	}
	if after, _ := getJSON[StatsResponse](t, ts2.URL+"/v1/stats"); after != before {
		t.Errorf("stats %+v after recovery, want %+v", after, before)
	}
}
