// Command gateway fronts N streamd backends with a consistent-hash
// routing layer and scatter-gather similarity search: the horizontal
// scale-out shape of the stream database. Session traffic (create,
// ingest, predict) is routed to the shard owning the session's patient;
// POST /v1/match fans out to every healthy shard and merges the
// results into the exact global answer, degrading gracefully (HTTP
// 200, "degraded": true) when a shard is down and its data has no
// surviving replica.
//
// With -replicas R > 1 each session is placed on R distinct backends:
// the primary streams its WAL to the successors, and when the health
// checker ejects the primary the gateway promotes a replica and
// re-routes the session there with no acknowledged data lost.
//
// Every POST /v1/match is the exact scatter: each healthy shard scores
// everything it holds, primaries and followers alike, and the merge
// drops the duplicate copies, so the answer has no replication lag at
// all. The gateway caches no results.
//
//	gateway -listen :8760 -replicas 2 \
//	        -backends http://127.0.0.1:8751,http://127.0.0.1:8752,http://127.0.0.1:8753
//
//	curl -X POST localhost:8760/v1/sessions \
//	     -d '{"patientId":"P01","sessionId":"live"}'   # routed by patient
//	curl -X POST localhost:8760/v1/match \
//	     -d '{"seq":[...],"k":10}'                     # scatter-gather
//	curl localhost:8760/v1/stats                       # aggregated
//	curl localhost:8760/v1/healthz                     # per-backend health
//	curl localhost:8760/metrics                        # Prometheus text
//
// Backend calls ride pooled connections upgraded to frames
// (internal/frame) on each backend's own port; only a relayed event
// stream stays on HTTP. No flag is involved.
//
// The gateway keeps no durable state: session placement is derived
// from the ring on create and rediscovered from the shards'
// /v1/shard/stats inventories after a restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/shard"
)

func main() {
	listen := flag.String("listen", ":8760", "HTTP listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	replicas := flag.Int("replicas", 1, "replication factor: primary plus R-1 WAL-following replicas per session")
	timeout := flag.Duration("timeout", 5*time.Second, "per-attempt backend request timeout")
	retries := flag.Int("retries", 2, "retry attempts for idempotent backend calls")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "active health-probe period (negative = disabled)")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures before a backend is ejected")
	readmitThreshold := flag.Int("readmit-threshold", 2, "consecutive probe successes before an ejected backend is readmitted")
	migrateTimeout := flag.Duration("migrate-timeout", shard.DefaultMigrateTimeout, "per-session migration deadline during a rebalance")
	pprofOn := flag.Bool("pprof", false, "serve /debug/pprof/ on the listen address")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit JSON log lines instead of text")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalStartup(err)
	}
	obs.InitLogging(os.Stderr, level, *logJSON)
	log := obs.Logger("gateway")

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fatalStartup(errors.New("-backends is required (comma-separated base URLs)"))
	}

	gw, err := shard.NewGateway(urls, shard.Options{
		Replicas:         *replicas,
		Timeout:          *timeout,
		MaxRetries:       *retries,
		HealthInterval:   *healthEvery,
		FailThreshold:    *failThreshold,
		ReadmitThreshold: *readmitThreshold,
		MigrateTimeout:   *migrateTimeout,
	})
	if err != nil {
		fatalStartup(err)
	}
	defer gw.Close()
	log.Info("ring built",
		slog.Int("backends", len(urls)),
		slog.Int("vnodes", shard.DefaultVnodes),
		slog.Int("replicas", *replicas))

	mux := http.NewServeMux()
	mux.Handle("/", gw)
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
		log.Info("shutting down", slog.String("reason", "signal"))
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Warn("shutdown did not drain cleanly", slog.Any("err", err))
		}
	}()

	log.Info("listening",
		slog.String("addr", *listen),
		slog.String("backends", strings.Join(urls, ",")))
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Error("fatal", slog.Any("err", err))
		os.Exit(1)
	}
	<-done
	log.Info("metrics summary", obs.SummaryAttrs(obs.Default())...)
}

func fatalStartup(err error) {
	fmt.Fprintln(os.Stderr, "gateway:", err)
	os.Exit(1)
}
