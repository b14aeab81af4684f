package sigindex

import (
	"sync"

	"stsmatch/internal/obs"
)

// Index metrics on the default registry. The probe/widening counters
// increment inside Probe itself, so the per-query counts a traced
// search reports in its index.probe span equal the metric deltas by
// construction.
var (
	mProbes, mWidenings           *obs.Counter
	mWindows, mStreams, mPoisoned *obs.Gauge
)

// registerMetrics runs on the first New, not at package init: core
// links this package into every daemon, and a process that never builds
// an index — every served shard — must not export the series at zero.
var registerMetrics = sync.OnceFunc(func() {
	mProbes = obs.Default().Counter("stsmatch_sigindex_probes_total",
		"Signature-index probes (one per widening round of an indexed search).")
	mWidenings = obs.Default().Counter("stsmatch_sigindex_widenings_total",
		"Envelope-widening re-probes (rounds beyond the first of an indexed search).")
	mWindows = obs.Default().Gauge("stsmatch_sigindex_windows",
		"Window postings currently stored in the signature index.")
	mStreams = obs.Default().Gauge("stsmatch_sigindex_streams",
		"Streams shadowed by the signature index.")
	mPoisoned = obs.Default().Gauge("stsmatch_sigindex_poisoned_streams",
		"Streams the index refuses to answer for; the matcher scans these instead.")
})
