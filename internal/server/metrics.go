package server

import (
	"sync/atomic"

	"stsmatch/internal/obs"
)

// liveServer is the server stsmatch_repl_lag_records reads at scrape
// time: the newest one created and not yet closed, which is the only
// one in a deployed process (tests start several). Close releases it,
// so the registry keeps no closed server alive.
var liveServer atomic.Pointer[Server]

// serverMetrics bundles the server's handles into the shared default
// registry. Registration is idempotent, so every Server in a process
// (tests start many) shares the same underlying metrics.
type serverMetrics struct {
	http           *obs.HTTPMetrics
	sessionsOpen   *obs.Gauge
	sessionsClosed *obs.Counter
	samplesIn      *obs.Counter
	verticesOut    *obs.Counter
	predictions    *obs.CounterVec // outcome: ok, no_matches, insufficient_history, error
	lockWait       *obs.Histogram
	predictWork    *obs.Histogram

	// Replication (see replication.go).
	replShipped    *obs.Counter
	replShipErrors *obs.Counter
	replApplied    *obs.Counter
	replSnapshots  *obs.Counter
	replPromotions *obs.Counter

	// Live session migration (see migration.go).
	migrations         *obs.Counter
	migrationFailures  *obs.Counter
	migrationsInFlight *obs.Gauge
	migrationBytes     *obs.Counter
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	r.GaugeFunc("stsmatch_repl_lag_records",
		"Worst unacknowledged replication backlog across sessions and links.",
		func() float64 {
			s := liveServer.Load()
			if s == nil {
				return 0
			}
			return float64(s.maxReplLag())
		})
	return &serverMetrics{
		http: obs.NewHTTPMetrics(r, "stsmatch"),
		sessionsOpen: r.Gauge("stsmatch_sessions_open",
			"Ingestion sessions currently open."),
		sessionsClosed: r.Counter("stsmatch_sessions_closed_total",
			"Ingestion sessions closed via DELETE /v1/sessions/{sid}."),
		samplesIn: r.Counter("stsmatch_server_samples_in_total",
			"Raw samples accepted by the ingestion API."),
		verticesOut: r.Counter("stsmatch_server_vertices_out_total",
			"PLR vertices appended to live session streams."),
		predictions: r.CounterVec("stsmatch_server_predictions_total",
			"Prediction requests by outcome.", "outcome"),
		lockWait: r.Histogram("stsmatch_server_lock_wait_seconds",
			"Time handlers spent waiting for the server session lock (contention).",
			obs.DefLatencyBuckets),
		predictWork: r.Histogram("stsmatch_server_predict_seconds",
			"Similarity search plus prediction wall time, outside the session lock.",
			obs.DefLatencyBuckets),
		replShipped: r.Counter("stsmatch_repl_shipped_records_total",
			"Replication records acknowledged by replicas."),
		replShipErrors: r.Counter("stsmatch_repl_ship_errors_total",
			"Replication shipments that failed (timeout, refusal, fencing)."),
		replApplied: r.Counter("stsmatch_repl_applied_records_total",
			"Replication records applied as a follower."),
		replSnapshots: r.Counter("stsmatch_repl_snapshots_total",
			"Snapshot catch-up shipments sent to lagging replicas."),
		replPromotions: r.Counter("stsmatch_repl_promotions_total",
			"Replica sessions promoted to primary (failovers served)."),
		migrations: r.Counter("stsmatch_migrations_total",
			"Live sessions migrated away from this node (cutover committed)."),
		migrationFailures: r.Counter("stsmatch_migration_failures_total",
			"Migration attempts that aborted before commit (catch-up or cutover failed)."),
		migrationsInFlight: r.Gauge("stsmatch_migration_sessions_in_flight",
			"Sessions currently mid-migration on this node (source side)."),
		migrationBytes: r.Counter("stsmatch_migration_bytes_shipped_total",
			"Bytes of catch-up batches shipped to migration targets."),
	}
}
