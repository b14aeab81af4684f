package fsm

import "stsmatch/internal/obs"

// Process-wide segmentation metrics, aggregated across every live
// Segmenter and written only when a segmenter enters IRR or clamps a
// sample: a plain Push, and a Push that closes a segment, touch none of
// them. The server counts the samples it ingests and the vertices it
// appends (stsmatch_server_samples_in_total, _vertices_out_total);
// per-instance counts remain available via SamplesSeen and
// SegmentsEmitted.
var (
	mIRREntries = obs.Default().Counter("stsmatch_fsm_irr_entries_total",
		"Times a segmenter entered the irregular (IRR) state.")
	mSpikeRejects = obs.Default().Counter("stsmatch_fsm_spike_rejects_total",
		"Samples clamped by the spike-noise filter.")
)
