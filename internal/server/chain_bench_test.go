package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

// chainBench is a durable server over a 24-patient history with one
// live session and a standing subscription on it, plus the requests the
// benchmark replays.
type chainBench struct {
	srv     *Server
	live    []plr.Sample // the live session's signal, replayed in 30-sample batches
	sent    int          // samples of live ingested so far
	lap     float64      // time offset added each time live wraps around
	body    []byte       // the ingest body, rebuilt per body rendered
	matchRq []byte       // the match body without its session
	matchSN string       // the session the match query was taken from
	asked   int          // match bodies rendered so far
	mbody   []byte       // the match body, rebuilt per body rendered

	repaired *obs.Counter // stsmatch_matcher_repaired_total
}

const chainBatch = 30 // samples per ingest request: one second at 30 Hz

// newBenchServer is a durable server over online's cohort shape: 24
// patients of one 300 s session each, fsynced every 50 ms. It returns
// the cohort too.
func newBenchServer(b *testing.B) (*Server, *store.DB) {
	b.Helper()
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 24, 1, 300
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewWithOptions(db, core.DefaultParams(), fsm.DefaultConfig(), Options{
		DataDir:       b.TempDir(),
		FsyncInterval: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, db
}

func newChainBench(b *testing.B) *chainBench {
	b.Helper()
	srv, db := newBenchServer(b)
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 11)
	if err != nil {
		b.Fatal(err)
	}
	cb := &chainBench{srv: srv, live: gen.Generate(600),
		repaired: obs.Default().Counter("stsmatch_matcher_repaired_total", "")}
	cb.lap = cb.live[len(cb.live)-1].T + cb.live[1].T - cb.live[0].T

	cb.must(b, http.MethodPost, "/v1/sessions", mustJSON(b, CreateSessionRequest{PatientID: "LIVE", SessionID: "S-LIVE"}))
	for cb.sent < 60*30 { // a minute of warm signal: predictions need repeated cycles
		cb.must(b, http.MethodPost, "/v1/sessions/S-LIVE/samples", cb.nextBatch())
	}
	var pr PLRResponse
	if err := json.Unmarshal(cb.must(b, http.MethodGet, "/v1/sessions/S-LIVE/plr", nil), &pr); err != nil {
		b.Fatal(err)
	}
	cb.must(b, http.MethodPost, "/v1/subscriptions", mustJSON(b, SubscriptionRequest{ID: "bench", PatientID: "LIVE", Seq: pr.Vertices[len(pr.Vertices)-8:]}))
	hist := db.Streams()[0]
	seq := hist.Seq()
	cb.matchRq = mustJSON(b, MatchRequest{Seq: seq[len(seq)-10:], PatientID: hist.PatientID, K: 10})
	cb.matchSN = hist.SessionID
	return cb
}

func mustJSON(b *testing.B, v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// must sends a set-up request through the full chain.
func (cb *chainBench) must(b *testing.B, method, path string, body []byte) []byte {
	b.Helper()
	rec := httptest.NewRecorder()
	cb.srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code >= 300 {
		b.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// nextMatch renders the match body asked from a session of its own,
// one no stream holds: the same query again would be repaired from the
// matcher's kept answer, and the funnel would not run over everything.
// Every stream stands in the same relation to each of them, so they do
// the same work.
func (cb *chainBench) nextMatch() []byte {
	cb.asked++
	out := append(cb.mbody[:0], `{"sessionId":"`...)
	out = append(append(out, cb.matchSN...), '~')
	out = strconv.AppendInt(out, int64(cb.asked), 10)
	out = append(append(out, `",`...), cb.matchRq[1:]...)
	cb.mbody = out
	return out
}

// nextBatch renders the next chainBatch samples of the live signal as
// an ingest body, shifted past the previous lap's end once it wraps.
func (cb *chainBench) nextBatch() []byte {
	out := append(cb.body[:0], '[')
	for i := 0; i < chainBatch; i++ {
		k := cb.sent % len(cb.live)
		s := cb.live[k]
		if i > 0 {
			out = append(out, ',')
		}
		out = appendSampleJSON(out, s.T+float64(cb.sent/len(cb.live))*cb.lap, s.Pos)
		cb.sent++
	}
	cb.body = append(out, ']')
	return cb.body
}

// appendSampleJSON appends one sample of an ingest body.
func appendSampleJSON(out []byte, t float64, pos []float64) []byte {
	out = append(out, `{"t":`...)
	out = strconv.AppendFloat(out, t, 'g', -1, 64)
	out = append(out, `,"pos":[`...)
	for d, p := range pos {
		if d > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendFloat(out, p, 'g', -1, 64)
	}
	return append(out, "]}"...)
}

// chainBlock is how many request bodies BenchmarkServeHTTPChain renders
// at a time, outside the timed requests.
const chainBlock = 1024

// bodyBlock is a block of request bodies, back to back in one buffer.
type bodyBlock struct {
	buf  []byte
	ends []int // body i is buf[ends[i-1]:ends[i]]
}

// fill renders the next n bodies of next into the block.
func (bb *bodyBlock) fill(n int, next func() []byte) {
	bb.buf, bb.ends = bb.buf[:0], bb.ends[:0]
	for range n {
		bb.buf = append(bb.buf, next()...)
		bb.ends = append(bb.ends, len(bb.buf))
	}
}

// body returns the block's body i.
func (bb *bodyBlock) body(i int) []byte {
	lo := 0
	if i > 0 {
		lo = bb.ends[i-1]
	}
	return bb.buf[lo:bb.ends[i]]
}

// chainWriter is a ResponseWriter that keeps the status and headers
// and discards the body, reused across requests.
type chainWriter struct {
	h    http.Header
	code int
}

func (w *chainWriter) Header() http.Header         { return w.h }
func (w *chainWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *chainWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkServeHTTPChain prices the per-request wrappers on the three
// served operations: one match, one predict and one ingest request,
// each sent through the server's full handler chain (RequestID,
// TraceHTTP, AccessLog and the store-seq stamp around the mux) and
// through the mux alone, sampled and unsampled. Through the chain the
// caller's traceparent decides (-01 / -00); through the mux a sampled
// request carries a recording root span in its context, as TraceHTTP
// would give it, and an unsampled one carries none. The ingest and match
// bodies are rendered chainBlock at a time with the timer stopped, so
// the rows time the server alone.
func BenchmarkServeHTTPChain(b *testing.B) {
	cb := newChainBench(b)
	ops := []struct {
		name, method, path string
		body               func() []byte
	}{
		{"match", http.MethodPost, "/v1/match", cb.nextMatch},
		{"predict", http.MethodGet, "/v1/sessions/S-LIVE/predict?delta=200ms", func() []byte { return nil }},
		{"ingest", http.MethodPost, "/v1/sessions/S-LIVE/samples", cb.nextBatch},
	}
	const parent = "00-0123456789abcdef0123456789abcdef-0123456789abcdef"
	for _, op := range ops {
		for _, via := range []string{"chain", "mux"} {
			for _, sampled := range []bool{false, true} {
				name := op.name + "/" + via + "/unsampled"
				if sampled {
					name = op.name + "/" + via + "/sampled"
				}
				b.Run(name, func(b *testing.B) {
					req := httptest.NewRequest(op.method, op.path, nil)
					req.Header.Set("Content-Type", "application/json")
					if via == "chain" {
						flags := "-00"
						if sampled {
							flags = "-01"
						}
						req.Header.Set(obs.TraceparentHeader, parent+flags)
					}
					w := &chainWriter{h: http.Header{}}
					var rd bytes.Reader
					var blk bodyBlock
					repairs := cb.repaired.Value()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%chainBlock == 0 {
							b.StopTimer()
							blk.fill(min(chainBlock, b.N-i), op.body)
							b.StartTimer()
						}
						clear(w.h)
						w.code = http.StatusOK
						rd.Reset(blk.body(i % chainBlock))
						r := req
						r.Body = io.NopCloser(&rd)
						if via == "chain" {
							cb.srv.ServeHTTP(w, r)
						} else {
							var root *obs.Span
							if sampled {
								root = obs.StartTrace(op.method+" "+op.path, "server", obs.SpanContext{}, cb.srv.col)
								r = r.WithContext(obs.ContextWithSpan(context.Background(), root))
							}
							cb.srv.mux.ServeHTTP(w, r)
							root.Finish()
						}
						if w.code != http.StatusOK {
							b.Fatalf("%s: status %d", name, w.code)
						}
					}
					if n := cb.repaired.Value() - repairs; n != 0 {
						b.Fatalf("%s: %d top-k searches were repairs, not the funnel", name, n)
					}
				})
			}
		}
	}
}
