package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
)

// TestServedMatchersSurviveGC: the server's matchers outlive garbage
// collection and the one returned last is lent first, so on an idle
// server a /predict asked again over an unchanged database is answered
// from the kept retrieval, and a /v1/match asked again is repaired,
// every time after the first — with a collection between every two
// requests and room for several matchers in the set. The bodies stay
// the same.
func TestServedMatchersSurviveGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv, feed := predictServer(t, core.DefaultParams(), 6, 1, 90)
	feed(90)
	hist := srv.db.Streams()[0]
	seq := hist.Seq()
	match := MatchRequest{Seq: seq[len(seq)-10:], PatientID: hist.PatientID, SessionID: hist.SessionID, K: 10}

	const repeats = 5
	for _, c := range []struct {
		name, method, path string
		body               any
		counter            string
	}{
		{"predict", http.MethodGet, "/v1/sessions/live/predict?delta=200ms", nil, "stsmatch_matcher_reused_total"},
		{"match", http.MethodPost, "/v1/match", match, "stsmatch_matcher_repaired_total"},
	} {
		counter := obs.Default().Counter(c.counter, "")
		first := serveJSON(t, srv, c.method, c.path, c.body, http.StatusOK).Body.Bytes()
		before := counter.Value()
		for i := 0; i < repeats; i++ {
			runtime.GC()
			if got := serveJSON(t, srv, c.method, c.path, c.body, http.StatusOK).Body.Bytes(); !bytes.Equal(got, first) {
				t.Fatalf("%s %d: body %s, want %s", c.name, i, got, first)
			}
		}
		if n := counter.Value() - before; n != repeats {
			t.Errorf("%s: %d of %d repeats answered from a kept answer (%s), want all", c.name, n, repeats, c.counter)
		}
	}
	if n := len(srv.matchers.free); n != 1 {
		t.Errorf("requests one after another made %d matchers, want 1", n)
	}
}

// TestServedThresholdListUnderIngest (run under -race): threshold
// /v1/match requests for one query, answered at once while another
// goroutine ingests into a live session and closes vertices, write their
// answers from lists the matchers share after they went back to the set;
// no search writes into one. Once the ingest stops, two answers in a row
// are byte for byte the same, the second from the kept answer, and equal
// a fresh matcher's.
func TestServedThresholdListUnderIngest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	params := core.DefaultParams()
	srv, feed := predictServer(t, params, 6, 1, 150)
	feed(60)
	hist := srv.db.Streams()[0]
	seq := hist.Seq()
	body, err := json.Marshal(MatchRequest{Seq: seq[len(seq)-10:], PatientID: hist.PatientID, SessionID: hist.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	match := func() (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}

	liveStream := srv.sessions["live"].stream
	vertices := liveStream.Len()
	repaired := obs.Default().Counter("stsmatch_matcher_repaired_total", "")
	repairs := repaired.Value()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if code, b := match(); code != http.StatusOK || !json.Valid(b) {
					t.Errorf("a match under ingest: status %d, body %.200s", code, b)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for to := 61.0; to <= 150; to++ {
		feed(to)
	}
	close(stop)
	readers.Wait()
	if liveStream.Len() == vertices {
		t.Fatal("fixture: the ingest closed no vertex")
	}
	if repaired.Value() == repairs {
		t.Error("no match under ingest was repaired")
	}

	reused := obs.Default().Counter("stsmatch_matcher_reused_total", "")
	code, first := match()
	before := reused.Value()
	code2, second := match()
	if code != http.StatusOK || code2 != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("two answers with no ingest between them: %d %s, then %d %s", code, first, code2, second)
	}
	if reused.Value() == before {
		t.Error("the second of two answers in a row was not reused")
	}
	m, err := core.NewMatcher(srv.db, params)
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQuery(seq[len(seq)-10:], hist.PatientID, hist.SessionID)
	want, err := m.FindSimilar(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeMatches(rec, want, nil)
	if !bytes.Equal(second, rec.Body.Bytes()) {
		t.Errorf("the served answer %.200s, a fresh matcher's %.200s", second, rec.Body.Bytes())
	}
}

// TestMatcherSetLendsLastReturned: the set lends GOMAXPROCS distinct
// matchers at once, and the one returned last first.
func TestMatcherSetLendsLastReturned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ms := srv.matchers
	a, b, c := ms.get(), ms.get(), ms.get()
	if a == b || b == c || a == c {
		t.Fatal("one matcher lent twice")
	}
	ms.put(b)
	ms.put(a)
	if got := ms.get(); got != a {
		t.Error("the matcher returned last is not lent first")
	}
	ms.put(a)
	ms.put(c)
}

// TestMatcherSetNeverWaits: with every matcher the set keeps lent, as
// to GOMAXPROCS clients that stopped reading their answers, a further
// /v1/match and /predict still complete, on matchers of their own; once
// all are returned the set keeps GOMAXPROCS of them.
func TestMatcherSetNeverWaits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, feed := predictServer(t, core.DefaultParams(), 6, 1, 90)
	feed(90)
	hist := srv.db.Streams()[0]
	seq := hist.Seq()
	match := MatchRequest{Seq: seq[len(seq)-10:], PatientID: hist.PatientID, SessionID: hist.SessionID, K: 10}

	body, err := json.Marshal(match)
	if err != nil {
		t.Fatal(err)
	}
	held := []*core.Matcher{srv.matchers.get(), srv.matchers.get()}
	codes := make(chan int, 2)
	go func() {
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)),
			httptest.NewRequest(http.MethodGet, "/v1/sessions/live/predict?delta=200ms", nil),
		} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			codes <- rec.Code
		}
	}()
	for _, route := range []string{"/v1/match", "/predict"} {
		select {
		case code := <-codes:
			if code != http.StatusOK {
				t.Errorf("%s with every matcher lent: status %d", route, code)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s waited for a lent matcher", route)
		}
	}
	for _, m := range held {
		srv.matchers.put(m)
	}
	if n := len(srv.matchers.free); n != 2 {
		t.Errorf("the set keeps %d free matchers, want GOMAXPROCS = 2", n)
	}
}

// TestMatcherReturnedBeforeAnswerWritten: a /v1/match or /predict whose
// client has not read its answer yet holds no matcher — the handler
// returned it when the search was done.
func TestMatcherReturnedBeforeAnswerWritten(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, feed := predictServer(t, core.DefaultParams(), 6, 1, 90)
	feed(90)
	hist := srv.db.Streams()[0]
	seq := hist.Seq()
	body, err := json.Marshal(MatchRequest{Seq: seq[len(seq)-10:], PatientID: hist.PatientID, SessionID: hist.SessionID, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)),
		httptest.NewRequest(http.MethodGet, "/v1/sessions/live/predict?delta=200ms", nil),
	} {
		w := &stalledWriter{h: http.Header{}, writing: make(chan struct{}), read: make(chan struct{})}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(w, req)
		}()
		select {
		case <-w.writing:
		case <-done:
			t.Fatalf("%s answered without writing a body", req.URL.Path)
		}
		srv.matchers.mu.Lock()
		free := len(srv.matchers.free)
		srv.matchers.mu.Unlock()
		close(w.read)
		<-done
		if free != 1 {
			t.Errorf("%s: %d matchers free while the answer waits to be read, want 1", req.URL.Path, free)
		}
		if w.code != http.StatusOK {
			t.Errorf("%s: status %d", req.URL.Path, w.code)
		}
	}
}

// stalledWriter is a client that stops reading: its first Write reports
// on writing and returns once read is closed.
type stalledWriter struct {
	h             http.Header
	code          int
	writing, read chan struct{}
	wrote         bool
}

func (w *stalledWriter) Header() http.Header  { return w.h }
func (w *stalledWriter) WriteHeader(code int) { w.code = code }
func (w *stalledWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		if w.code == 0 {
			w.code = http.StatusOK
		}
		close(w.writing)
		<-w.read
	}
	return len(p), nil
}

// TestMatcherSetConcurrentLending (run under -race): goroutines beyond
// the set's size taking and returning matchers at once never hold one
// matcher together, all of them finish, and the set keeps no more than
// its size.
func TestMatcherSetConcurrentLending(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	lent := map[*core.Matcher]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := srv.matchers.get()
				mu.Lock()
				if lent[m] {
					t.Error("one matcher lent to two goroutines at once")
				}
				lent[m] = true
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				lent[m] = false
				mu.Unlock()
				srv.matchers.put(m)
			}
		}()
	}
	wg.Wait()
	if n := len(srv.matchers.free); n > 2 {
		t.Errorf("the set keeps %d free matchers, its size is 2", n)
	}
}
