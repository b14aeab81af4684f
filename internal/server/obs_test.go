package server

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

// scrapeMetrics fetches /metrics and parses the Prometheus text
// format into name{labels} -> value.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// ingestSeconds streams seconds of synthetic respiration into an open
// session in one batch, shifting sample times by tOffset so repeated
// calls keep the stream's time strictly increasing. It returns the
// last timestamp fed, for chaining follow-up batches.
func ingestSeconds(t *testing.T, baseURL, sid string, seed int64, seconds, tOffset float64) float64 {
	t.Helper()
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), seed)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(seconds)
	batch := make([]SampleIn, len(samples))
	for i, s := range samples {
		batch[i] = SampleIn{T: s.T + tOffset, Pos: s.Pos}
	}
	resp := postJSON(t, baseURL+"/v1/sessions/"+sid+"/samples", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	return batch[len(batch)-1].T
}

func TestHealthzEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "HP", SessionID: "HS"})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	h := decode[HealthzResponse](t, resp)
	if h.Status != "ok" || h.OpenSessions != 1 || h.Patients != 1 {
		t.Errorf("healthz = %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", h.UptimeSeconds)
	}
}

func TestRequestIDOnResponses(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
}

// TestMetricsEndpoint runs a scripted session and asserts the scraped
// metrics are present, plausible, and monotonic across scrapes.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "MP", SessionID: "MS"})
	lastT := ingestSeconds(t, ts.URL, "MS", 7, 60, 0)
	if resp, err := http.Get(ts.URL + "/v1/sessions/MS/predict?delta=200ms"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}

	first := scrapeMetrics(t, ts.URL)
	// The registry is process-global, so values accumulate across
	// tests: assert presence and nonzero, not exact counts.
	for _, name := range []string{
		"stsmatch_fsm_samples_total",
		"stsmatch_fsm_vertices_total",
		"stsmatch_fsm_state_transitions_total",
		"stsmatch_matcher_searches_total",
		"stsmatch_matcher_candidates_scanned_total",
		"stsmatch_server_samples_in_total",
		"stsmatch_store_vertices",
		`stsmatch_http_requests_total{route="ingest_samples",code="2xx"}`,
		`stsmatch_http_requests_total{route="predict",code="2xx"}`,
		`stsmatch_http_request_seconds_count{route="predict"}`,
		`stsmatch_server_predictions_total{outcome="ok"}`,
		"stsmatch_server_predict_seconds_count",
		"stsmatch_server_lock_wait_seconds_count",
	} {
		if v, ok := first[name]; !ok {
			t.Errorf("metric %s missing from scrape", name)
		} else if v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	// core links internal/sigindex into every daemon, but a shard never
	// builds an index, so it must not export the index's series.
	for name := range first {
		if strings.HasPrefix(name, "stsmatch_sigindex_") {
			t.Errorf("served shard exports %s", name)
		}
	}
	// Histogram bucket lines must be cumulative and end at +Inf ==
	// count.
	inf := first[`stsmatch_http_request_seconds_bucket{route="predict",le="+Inf"}`]
	cnt := first[`stsmatch_http_request_seconds_count{route="predict"}`]
	if inf != cnt {
		t.Errorf("+Inf bucket %v != count %v", inf, cnt)
	}

	// More traffic, then re-scrape: counters must be monotonic.
	ingestSeconds(t, ts.URL, "MS", 8, 30, lastT+0.1)
	if resp, err := http.Get(ts.URL + "/v1/sessions/MS/predict?delta=200ms"); err == nil {
		resp.Body.Close()
	}
	second := scrapeMetrics(t, ts.URL)
	for name, v1 := range first {
		if !strings.Contains(name, "_total") && !strings.Contains(name, "_count") &&
			!strings.Contains(name, "_bucket") {
			continue
		}
		if v2, ok := second[name]; ok && v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", name, v1, v2)
		}
	}
	if second["stsmatch_fsm_samples_total"] <= first["stsmatch_fsm_samples_total"] {
		t.Error("fsm samples counter did not advance with new traffic")
	}
}

// seqStates builds a PLR sequence with the given per-vertex states,
// unit-spaced times starting at t0, and a zigzag 1-D position.
func seqStates(states string, t0 float64) plr.Sequence {
	out := make(plr.Sequence, len(states))
	for i, ch := range []byte(states) {
		var st plr.State
		switch ch {
		case 'E':
			st = plr.EX
		case 'O':
			st = plr.EOE
		case 'I':
			st = plr.IN
		default:
			st = plr.IRR
		}
		out[i] = plr.Vertex{T: t0 + float64(i), Pos: []float64{float64(i % 3)}, State: st}
	}
	return out
}

// TestFindSimilarSeesPostEnableIndexesAppends is the stale-index
// regression guard: vertices appended to a stream after
// DB.EnableIndexes() must be visible to FindSimilar (the live
// ingestion path appends to indexed streams continuously).
func TestFindSimilarSeesPostEnableIndexesAppends(t *testing.T) {
	db := store.NewDB()
	p, err := db.AddPatient(store.PatientInfo{ID: "H"})
	if err != nil {
		t.Fatal(err)
	}
	hist := p.AddStream("hist")
	if err := hist.Append(seqStates("EOIEOIEOIEOI", 0)...); err != nil {
		t.Fatal(err)
	}
	db.EnableIndexes()

	// The suffix's state pattern EEOOII occurs nowhere in the prefix,
	// so a match can only come from post-index appends.
	if err := hist.Append(seqStates("EEOOII", 12)...); err != nil {
		t.Fatal(err)
	}

	window := hist.Seq()[12:18]
	qseq := make(plr.Sequence, len(window))
	for i, v := range window {
		qseq[i] = plr.Vertex{T: v.T + 1000, Pos: append([]float64(nil), v.Pos...), State: v.State}
	}
	m, err := core.NewMatcher(db, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	matches, err := m.FindSimilar(core.NewQuery(qseq, "Q", "other"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("FindSimilar found no matches in the post-EnableIndexes suffix (stale index)")
	}
	if matches[0].Start != 12 || matches[0].Distance != 0 {
		t.Errorf("best match = start %d dist %v, want start 12 dist 0",
			matches[0].Start, matches[0].Distance)
	}
}

// TestPredictSeesAppendedLiveHistory asserts end-to-end that a live
// session's growing stream stays matchable: predictions keep working
// as the indexed stream is extended through the API.
func TestPredictSeesAppendedLiveHistory(t *testing.T) {
	ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "LP", SessionID: "LS"})

	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(120)
	feed := func(from, to int) {
		batch := make([]SampleIn, 0, to-from)
		for _, s := range samples[from:to] {
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		resp := postJSON(t, ts.URL+"/v1/sessions/LS/samples", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	predict := func() PredictionResponse {
		resp, err := http.Get(ts.URL + "/v1/sessions/LS/predict?delta=200ms")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
		return decode[PredictionResponse](t, resp)
	}

	cut := len(samples) / 2
	feed(0, cut)
	p1 := predict()
	if p1.NumMatches == 0 {
		t.Fatal("no matches on the initial live stream")
	}
	feed(cut, len(samples))
	p2 := predict()
	if p2.NumMatches == 0 {
		t.Fatal("no matches after extending the live stream (stale index)")
	}
}

// TestConcurrentScrapesDuringIngestion hammers /metrics and predict
// while samples stream in; run with -race it verifies the whole
// instrumented pipeline is data-race free.
func TestConcurrentScrapesDuringIngestion(t *testing.T) {
	ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "CP", SessionID: "CS"})

	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 5)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(60)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				scrapeMetrics(t, ts.URL)
				if resp, err := http.Get(ts.URL + "/v1/sessions/CS/predict?delta=100ms"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	const chunk = 100
	for i := 0; i < len(samples); i += chunk {
		end := min(i+chunk, len(samples))
		batch := make([]SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		resp := postJSON(t, ts.URL+"/v1/sessions/CS/samples", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	close(done)
	wg.Wait()

	m := scrapeMetrics(t, ts.URL)
	if m["stsmatch_fsm_samples_total"] == 0 || m["stsmatch_http_in_flight"] != 0 {
		t.Errorf("post-run metrics: samples=%v inFlight=%v",
			m["stsmatch_fsm_samples_total"], m["stsmatch_http_in_flight"])
	}
}
