package fsm

import "stsmatch/internal/obs"

// Process-wide segmentation metrics, aggregated across every live
// Segmenter and written only when a segment closes or a sample is
// clamped: a plain Push touches none of them. Per-instance counts remain
// available via SamplesSeen and SegmentsEmitted; the server counts the
// samples it ingests.
var (
	mVertices = obs.Default().Counter("stsmatch_fsm_vertices_total",
		"PLR vertices emitted by online segmenters.")
	mTransitions = obs.Default().Counter("stsmatch_fsm_state_transitions_total",
		"Committed finite-state transitions (segment boundaries).")
	mIRREntries = obs.Default().Counter("stsmatch_fsm_irr_entries_total",
		"Times a segmenter entered the irregular (IRR) state.")
	mSpikeRejects = obs.Default().Counter("stsmatch_fsm_spike_rejects_total",
		"Samples clamped by the spike-noise filter.")
)
