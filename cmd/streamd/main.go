// Command streamd serves the online ingestion and prediction HTTP API:
// the deployment shape of the paper's real-time system. A treatment
// console (or the demo client below) opens a session, streams samples
// as they are imaged, and polls predictions.
//
//	streamd -listen :8750 -db cohort.json     # preload history
//	streamd -data-dir /var/lib/stsmatch \
//	        -fsync 50ms -snapshot-every 5m    # durable: WAL + snapshots
//
//	curl -X POST localhost:8750/v1/sessions \
//	     -d '{"patientId":"P01","sessionId":"live"}'
//	curl -X POST localhost:8750/v1/sessions/live/samples \
//	     -d '[{"t":0.0,"pos":[12.1]},{"t":0.033,"pos":[11.8]}]'
//	curl 'localhost:8750/v1/sessions/live/predict?delta=200ms'
//	curl localhost:8750/v1/stats
//	curl localhost:8750/v1/healthz
//	curl localhost:8750/metrics            # Prometheus text format
//
// With -data-dir the daemon journals every mutation to a write-ahead
// log and periodically compacts it into snapshots; on restart it
// recovers the database and resumes the sessions that were open. The
// -fsync flag sets the group-commit interval (0 = fsync every append)
// and bounds how much acknowledged data a hard crash can lose.
//
// A streamd can also be a replication primary, follower, or both:
// sessions created with "replicate" target URLs stream every WAL
// record to those followers before acknowledging writes, and POST
// /v1/replicate applies shipped batches on the receiving side. The
// -advertise flag names this daemon in its outgoing shipments (so
// followers can allowlist it) and -replicate-from restricts which
// sources may ship WAL batches here. Followers also serve reads:
// POST /v1/match on a replica answers from its WAL-applied store, which
// is how a gateway's scatter covers a dead primary's data.
// /v1/shard/stats and /v1/healthz report per-session per-link
// shipped/acked sequence numbers.
//
// A gateway or peer shard upgrades its connections on the same port to
// frames (internal/frame), served by the same handlers; curl and every
// other client speak HTTP there as before. Nothing needs configuring.
//
// With -pprof the daemon additionally serves net/http/pprof under
// /debug/pprof/ on the same listener. The daemon shuts down gracefully
// on SIGINT/SIGTERM, draining in-flight requests, closing its framed
// connections, then flushing the WAL and writing a final snapshot so
// no in-memory state is lost.
//
// With -demo, streamd instead runs an in-process end-to-end demo
// against its own API: it starts the server on the listen address,
// streams a synthetic session in real-time order, and logs
// predictions alongside the later-observed truth, ending with a
// metrics summary of the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	signalgen "stsmatch/internal/signal"
	"stsmatch/internal/store"
)

func main() {
	listen := flag.String("listen", ":8750", "HTTP listen address")
	dbPath := flag.String("db", "", "optional PLR database to preload as history")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead log and snapshots (empty = in-memory only)")
	fsyncEvery := flag.Duration("fsync", 50*time.Millisecond, "WAL group-commit fsync interval (0 = fsync every append)")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "periodic WAL compaction into snapshots (0 = only on shutdown)")
	advertise := flag.String("advertise", "", "base URL this daemon advertises as the source of its WAL shipments (e.g. http://10.0.0.1:8750)")
	replicateFrom := flag.String("replicate-from", "", "comma-separated source URLs allowed to ship WAL batches here (empty = accept any)")
	demo := flag.Bool("demo", false, "run the self-contained demo client and exit")
	pprofOn := flag.Bool("pprof", false, "serve /debug/pprof/ on the listen address")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit JSON log lines instead of text")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalStartup(err)
	}
	obs.InitLogging(os.Stderr, level, *logJSON)
	log := obs.Logger("streamd")

	var db *store.DB
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			fatal(log, err)
		}
		db, err = store.ReadAny(f)
		f.Close()
		if err != nil {
			fatal(log, err)
		}
		log.Info("preloaded history",
			slog.String("path", *dbPath),
			slog.Int("patients", db.NumPatients()),
			slog.Int("vertices", db.NumVertices()))
	}

	var replFrom []string
	for _, u := range strings.Split(*replicateFrom, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replFrom = append(replFrom, strings.TrimRight(u, "/"))
		}
	}
	srv, err := server.NewWithOptions(db, core.DefaultParams(), fsm.DefaultConfig(), server.Options{
		DataDir:       *dataDir,
		FsyncInterval: *fsyncEvery,
		SnapshotEvery: *snapshotEvery,
		AdvertiseURL:  strings.TrimRight(*advertise, "/"),
		ReplicateFrom: replFrom,
	})
	if err != nil {
		fatal(log, err)
	}
	if *dataDir != "" {
		log.Info("durability enabled",
			slog.String("dataDir", *dataDir),
			slog.Duration("fsync", *fsyncEvery),
			slog.Duration("snapshotEvery", *snapshotEvery))
	}

	if *demo {
		runDemo(log, srv)
		if err := srv.Close(); err != nil {
			log.Error("persisting state", slog.Any("err", err))
		}
		log.Info("metrics summary", obs.SummaryAttrs(obs.Default())...)
		return
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if *pprofOn {
		obs.AttachPprof(mux)
		log.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}

	hs := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		open := srv.OpenSessions()
		log.Info("shutting down",
			slog.Int("openSessions", open),
			slog.String("reason", "signal"))
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Warn("shutdown did not drain cleanly", slog.Any("err", err))
		}
		// Persist after the drain: flush the WAL and write a final
		// snapshot so a configured data dir loses nothing on restart.
		if err := srv.Close(); err != nil {
			log.Error("persisting state on shutdown", slog.Any("err", err))
		} else if *dataDir != "" {
			log.Info("state persisted", slog.String("dataDir", *dataDir))
		}
		log.Info("drained", slog.Int("openSessions", open))
	}()

	log.Info("listening", slog.String("addr", *listen))
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(log, err)
	}
	<-done
	log.Info("metrics summary", obs.SummaryAttrs(obs.Default())...)
}

// runDemo drives the API in-process: ingest a synthetic session in
// chunks and request a prediction after each chunk, comparing it with
// what actually arrives next.
func runDemo(log *slog.Logger, h http.Handler) {
	call := func(method, path string, body any) (*http.Response, error) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequest(method, "http://demo"+path, &buf)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		h.ServeHTTP(rec, req)
		return rec.result(), nil
	}

	if _, err := call("POST", "/v1/sessions", server.CreateSessionRequest{
		PatientID: "DEMO", SessionID: "demo-live",
	}); err != nil {
		fatal(log, err)
	}

	gen, err := signalgen.NewRespiration(signalgen.DefaultRespiration(), 42)
	if err != nil {
		fatal(log, err)
	}
	samples := gen.Generate(90)
	const chunk = 150 // ~5 s of data per ingest call
	for i := 0; i < len(samples); i += chunk {
		end := min(i+chunk, len(samples))
		batch := make([]server.SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
		}
		if _, err := call("POST", "/v1/sessions/demo-live/samples", batch); err != nil {
			fatal(log, err)
		}
		resp, err := call("GET", "/v1/sessions/demo-live/predict?delta=200ms", nil)
		if err != nil {
			fatal(log, err)
		}
		now := samples[end-1].T
		if resp.StatusCode != http.StatusOK {
			log.Info("no prediction yet",
				slog.Float64("t", now), slog.Int("status", resp.StatusCode))
			continue
		}
		var pred server.PredictionResponse
		if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
			fatal(log, err)
		}
		// Truth: the raw sample nearest now+200ms, if already generated.
		truthIdx := end - 1 + 6 // 200 ms at 30 Hz
		attrs := []any{
			slog.Float64("t", now),
			slog.String("predicted", fmt.Sprintf("%.2f mm", pred.Pos[0])),
			slog.Int("matches", pred.NumMatches),
			slog.Int("queryVertices", pred.QueryLen),
			slog.Bool("stable", pred.Stable),
		}
		if truthIdx < len(samples) {
			attrs = append(attrs,
				slog.String("truth", fmt.Sprintf("%.2f mm", samples[truthIdx].Pos[0])))
		}
		log.Info("predict(+200ms)", attrs...)
	}

	// Scrape the server's own /metrics endpoint to show the run's
	// pipeline counters the way a Prometheus scrape would see them.
	resp, err := call("GET", "/metrics", nil)
	if err != nil {
		fatal(log, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(log, err)
	}
	headline := []string{
		"stsmatch_server_samples_in_total",
		"stsmatch_server_vertices_out_total",
		"stsmatch_matcher_index_pruned_total",
		"stsmatch_matcher_candidates_scanned_total",
		"stsmatch_matcher_matches_total",
	}
	attrs := []any{slog.Int("status", resp.StatusCode), slog.Int("bytes", len(body))}
	for _, line := range strings.Split(string(body), "\n") {
		for _, name := range headline {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				attrs = append(attrs, slog.String(name, rest))
			}
		}
	}
	log.Info("scraped /metrics", attrs...)
	log.Info("demo complete")
}

// recorder is a minimal in-process ResponseWriter (httptest lives in
// net/http/httptest but is conventionally test-only; this demo stays
// self-contained).
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{code: 200, header: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recorder) result() *http.Response {
	return &http.Response{
		StatusCode: r.code,
		Header:     r.header,
		Body:       readCloser{&r.body},
	}
}

type readCloser struct{ *bytes.Buffer }

func (readCloser) Close() error { return nil }

func fatal(log *slog.Logger, err error) {
	log.Error("fatal", slog.Any("err", err))
	os.Exit(1)
}

func fatalStartup(err error) {
	fmt.Fprintln(os.Stderr, "streamd:", err)
	os.Exit(1)
}
