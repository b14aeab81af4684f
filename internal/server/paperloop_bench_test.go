package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
)

// loopSession is one live session of BenchmarkPaperLoop: its requests,
// reused from tick to tick, and the patient's signal, generated a few
// seconds ahead of what was sent.
type loopSession struct {
	ingest, predict *http.Request
	w               chainWriter
	rd              bytes.Reader
	body            []byte
	gen             *signal.Respiration
	until           float64      // the signal is generated to here
	ahead           []plr.Sample // generated, not yet sent

	ingestNs, predictNs time.Duration
}

// paperLoop is a bench server with live sessions, each a patient of its
// own.
type paperLoop struct {
	srv      *Server
	sessions []*loopSession
}

func newPaperLoop(b *testing.B, n int) *paperLoop {
	b.Helper()
	srv, _ := newBenchServer(b)
	pl := &paperLoop{srv: srv}
	cb := &chainBench{srv: srv}
	for k := range n {
		sid := "S-LIVE-" + strconv.Itoa(k)
		cb.must(b, http.MethodPost, "/v1/sessions", mustJSON(b, CreateSessionRequest{PatientID: "LIVE-" + strconv.Itoa(k), SessionID: sid}))
		gen, err := signal.NewRespiration(signal.DefaultRespiration(), int64(100+k))
		if err != nil {
			b.Fatal(err)
		}
		ls := &loopSession{
			ingest:  httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sid+"/samples", nil),
			predict: httptest.NewRequest(http.MethodGet, "/v1/sessions/"+sid+"/predict?delta=200ms", nil),
			w:       chainWriter{h: http.Header{}},
			gen:     gen,
		}
		ls.ingest.Header.Set("Content-Type", "application/json")
		// Warm in one-second batches until the session predicts.
		for warm := 0; ; warm++ {
			cb.must(b, http.MethodPost, ls.ingest.URL.Path, ls.render(30))
			if warm >= 60 && pl.send(ls, ls.predict, nil) == http.StatusOK {
				break
			}
			if warm > 600 {
				b.Fatalf("session %d: no prediction after %d s of signal", k, warm)
			}
		}
		pl.sessions = append(pl.sessions, ls)
	}
	return pl
}

// render writes the session's next m samples as an ingest body.
func (ls *loopSession) render(m int) []byte {
	out := append(ls.body[:0], '[')
	for i := range m {
		for len(ls.ahead) == 0 {
			ls.until += 10
			ls.ahead = ls.gen.Generate(ls.until)
		}
		s := ls.ahead[0]
		ls.ahead = ls.ahead[1:]
		if i > 0 {
			out = append(out, ',')
		}
		out = appendSampleJSON(out, s.T, s.Pos)
	}
	ls.body = append(out, ']')
	return ls.body
}

// send serves one reused request with body through the full chain and
// returns its status.
func (pl *paperLoop) send(ls *loopSession, r *http.Request, body []byte) int {
	clear(ls.w.h)
	ls.w.code = http.StatusOK
	ls.rd.Reset(body)
	r.Body = io.NopCloser(&ls.rd)
	pl.srv.ServeHTTP(&ls.w, r)
	return ls.w.code
}

// tick sends, for each of the sessions, one ingest of one sample and
// then one predict, timing each request.
func (pl *paperLoop) tick(b *testing.B, sessions []*loopSession) {
	for _, ls := range sessions {
		body := ls.render(1)
		t0 := time.Now()
		code := pl.send(ls, ls.ingest, body)
		t1 := time.Now()
		if code != http.StatusOK {
			b.Errorf("ingest: status %d", code)
			return
		}
		code = pl.send(ls, ls.predict, nil)
		ls.ingestNs += t1.Sub(t0)
		ls.predictNs += time.Since(t1)
		if code != http.StatusOK && code != http.StatusConflict {
			b.Errorf("predict: status %d", code)
			return
		}
	}
}

// BenchmarkPaperLoop runs the paper's online loop (§1, §4.3) at the rate
// it images: every 1/30 s tick, each of N live sessions sends one
// ingest of one sample, then one predict, through the server's full
// handler chain with no socket. A tick's sessions are split over at
// most GOMAXPROCS goroutines, so no session is served by two at once,
// and ticks run back to back: the signal's clock advances 1/30 s a
// tick, the wall clock as fast as the server goes. It reports ns per
// ingest and per predict, and the p99 of a tick's wall time, which
// must stay under 33 ms for the server to keep up with N patients. A
// predict may answer 409 when a session's newest query matches
// nothing. Run it with a fixed tick count, e.g. -benchtime 300x (ten
// seconds of signal).
func BenchmarkPaperLoop(b *testing.B) {
	for _, n := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			pl := newPaperLoop(b, n)
			workers := min(n, runtime.GOMAXPROCS(0))
			parts := make([][]*loopSession, workers)
			for k, ls := range pl.sessions {
				parts[k%workers] = append(parts[k%workers], ls)
			}
			ticks := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for range b.N {
				t0 := time.Now()
				var wg sync.WaitGroup
				for _, part := range parts[1:] {
					wg.Add(1)
					go func() {
						defer wg.Done()
						pl.tick(b, part)
					}()
				}
				pl.tick(b, parts[0])
				wg.Wait()
				ticks = append(ticks, time.Since(t0))
			}
			b.StopTimer()
			var ingest, predict time.Duration
			for _, ls := range pl.sessions {
				ingest += ls.ingestNs
				predict += ls.predictNs
			}
			ops := float64(b.N * n)
			slices.Sort(ticks)
			b.ReportMetric(float64(ingest.Nanoseconds())/ops, "ns/ingest")
			b.ReportMetric(float64(predict.Nanoseconds())/ops, "ns/predict")
			b.ReportMetric(float64(ticks[(len(ticks)*99)/100].Microseconds())/1e3, "p99-tick-ms")
		})
	}
}
