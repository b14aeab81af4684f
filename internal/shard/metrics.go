package shard

import "stsmatch/internal/obs"

// shardMetrics bundles the gateway's handles into the shared default
// registry. Registration is idempotent, so every Pool/Gateway in a
// process (tests start many) shares the same underlying families.
type shardMetrics struct {
	requests  *obs.CounterVec   // backend, outcome: ok | error
	retries   *obs.CounterVec   // backend
	latency   *obs.HistogramVec // backend
	healthy   *obs.GaugeVec     // backend: 1 healthy, 0 ejected
	scatter   *obs.Histogram
	degraded  *obs.Counter
	routed    *obs.CounterVec // backend: sessions routed by the ring
	failovers *obs.Counter    // sessions promoted onto a replica

	// Elastic rebalancing (see transfer.go).
	rebalances             *obs.Counter
	rebalanceMoved         *obs.Counter
	rebalanceFailures      *obs.Counter
	placementInvalidations *obs.Counter // placements dropped on a 410 tombstone
}

func newShardMetrics(r *obs.Registry) *shardMetrics {
	return &shardMetrics{
		requests: r.CounterVec("stsmatch_gateway_backend_requests_total",
			"Gateway-to-backend requests by backend and outcome.", "backend", "outcome"),
		retries: r.CounterVec("stsmatch_gateway_backend_retries_total",
			"Gateway-to-backend retry attempts by backend.", "backend"),
		latency: r.HistogramVec("stsmatch_gateway_backend_seconds",
			"Gateway-to-backend request latency in seconds, by backend.",
			obs.DefLatencyBuckets, "backend"),
		healthy: r.GaugeVec("stsmatch_gateway_backend_healthy",
			"Backend health as seen by the gateway (1 healthy, 0 ejected).", "backend"),
		scatter: r.Histogram("stsmatch_gateway_scatter_seconds",
			"Scatter-gather similarity query wall time in seconds.",
			obs.DefLatencyBuckets),
		degraded: r.Counter("stsmatch_gateway_degraded_total",
			"Scatter-gather queries answered with partial (degraded) results."),
		routed: r.CounterVec("stsmatch_gateway_sessions_routed_total",
			"Sessions routed to a backend by the consistent-hash ring.", "backend"),
		failovers: r.Counter("stsmatch_gateway_failovers_total",
			"Sessions failed over to a replica after the primary was ejected."),
		rebalances: r.Counter("stsmatch_gateway_rebalances_total",
			"Rebalance passes run (membership change or explicit re-drive)."),
		rebalanceMoved: r.Counter("stsmatch_gateway_rebalance_sessions_moved_total",
			"Sessions migrated onto their ring-designated owner by a rebalance."),
		rebalanceFailures: r.Counter("stsmatch_gateway_rebalance_failures_total",
			"Session migrations a rebalance could not complete after retries."),
		placementInvalidations: r.Counter("stsmatch_gateway_placement_invalidations_total",
			"Cached session placements invalidated by a 410 tombstone response."),
	}
}
