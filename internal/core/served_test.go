package core_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	"stsmatch/internal/signal"
)

// serve sends one request through the server's whole handler chain.
func serve(t *testing.T, srv *server.Server, method, path string, body any, traceparent string) *httptest.ResponseRecorder {
	t.Helper()
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code >= 300 {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return rec
}

// TestUnsampledServedMatchReadsNoStageClock: the matcher's per-pass
// stage clocks run only under a recorded trace, so a served match its
// caller did not sample reads the clock zero times and leaves nothing
// in the recent ring; the same match sampled reads it and is kept.
func TestUnsampledServedMatchReadsNoStageClock(t *testing.T) {
	srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serve(t, srv, http.MethodPost, "/v1/sessions", server.CreateSessionRequest{PatientID: "P01", SessionID: "S01"}, "")
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var batch []server.SampleIn
	for _, s := range gen.Generate(45) {
		batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
	}
	serve(t, srv, http.MethodPost, "/v1/sessions/S01/samples", batch, "")
	var pr server.PLRResponse
	if err := json.Unmarshal(serve(t, srv, http.MethodGet, "/v1/sessions/S01/plr", nil, "").Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Vertices) < 12 {
		t.Fatalf("PLR too short: %d", len(pr.Vertices))
	}
	body := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-10:], PatientID: "P01", SessionID: "S01", K: 3}

	var reads atomic.Int64
	core.SetStageClock(t, func() time.Time { reads.Add(1); return time.Now() })
	recentBefore := len(srv.Traces().Recent())
	const parent = "00-0123456789abcdef0123456789abcdef-0123456789abcdef"
	rec := serve(t, srv, http.MethodPost, "/v1/match", body, parent+"-00")
	if got := reads.Load(); got != 0 {
		t.Errorf("an unsampled served match read the stage clock %d times", got)
	}
	if got := len(srv.Traces().Recent()); got != recentBefore {
		t.Errorf("an unsampled served match left a trace: recent ring %d -> %d", recentBefore, got)
	}
	if rec.Header().Get("X-Trace-Id") != "0123456789abcdef0123456789abcdef" {
		t.Errorf("X-Trace-Id %q", rec.Header().Get("X-Trace-Id"))
	}

	serve(t, srv, http.MethodPost, "/v1/match", body, parent+"-01")
	if reads.Load() == 0 {
		t.Error("a sampled served match never read the stage clock")
	}
	if got := len(srv.Traces().Recent()); got != recentBefore+1 {
		t.Errorf("a sampled served match: recent ring %d -> %d", recentBefore, got)
	}
}
