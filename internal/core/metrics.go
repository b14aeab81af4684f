package core

import "stsmatch/internal/obs"

// Matching-pipeline metrics. The pruning funnel reads top to bottom:
// of all windows a stream could offer, candidates_scanned survive the
// state-order filter (index_pruned did not), self_excluded overlap the
// query's own present, lb_pruned fail the O(1) prefix-sum lower bound
// before any per-segment arithmetic, distance_rejected exceed the
// acceptance bound after (possibly abandoned) exact evaluation, and
// matches_total are returned. A healthy funnel keeps each layer a
// small fraction of the one above it.
var (
	mCandidates = obs.Default().Counter("stsmatch_matcher_candidates_scanned_total",
		"Candidate windows that passed the state-order filter and reached distance evaluation.")
	mIndexPruned = obs.Default().Counter("stsmatch_matcher_index_pruned_total",
		"Windows eliminated by the state-order (n-gram index) filter before any distance work.")
	mSelfExcluded = obs.Default().Counter("stsmatch_matcher_self_excluded_total",
		"Candidate windows excluded for overlapping the query's own present.")
	mLBPruned = obs.Default().Counter("stsmatch_matcher_lb_pruned_total",
		"Candidate windows rejected by the O(1) prefix-sum lower bound before exact distance evaluation.")
	mDistanceRejected = obs.Default().Counter("stsmatch_matcher_distance_rejected_total",
		"Candidate windows rejected by the acceptance bound (threshold or adaptive top-k), including early abandonment.")
	mMatched = obs.Default().Counter("stsmatch_matcher_matches_total",
		"Candidate windows accepted as matches.")
	mReused = obs.Default().Counter("stsmatch_matcher_reused_total",
		"Threshold searches answered from the matcher's kept last retrieval, without the funnel: the same query over an unchanged database.")
	mRepaired = obs.Default().Counter("stsmatch_matcher_repaired_total",
		"Top-k searches answered by repairing a kept answer to the same search: the funnel ran over the windows appended since.")
	mQueryLen = obs.Default().Histogram("stsmatch_matcher_query_vertices",
		"Query length in vertices per search.",
		[]float64{2, 4, 7, 10, 13, 16, 19, 22, 25, 31})
	mSearchSeconds = obs.Default().Histogram("stsmatch_matcher_search_seconds",
		"Search wall time in seconds; its _count is the number of searches.", obs.DefLatencyBuckets)
	mStableQueries = obs.Default().Counter("stsmatch_query_stable_total",
		"Dynamic queries whose stability strip halted on a stable window.")
	mUnstableQueries = obs.Default().Counter("stsmatch_query_unstable_total",
		"Dynamic queries that hit the maximum length still unstable.")
)

// record adds one search's funnel counts to the registry counters —
// the only place the stsmatch_matcher_* funnel series are written.
func (c FunnelCounts) record() {
	mCandidates.Add(c.Scanned())
	mIndexPruned.Add(c.StateRejected)
	mSelfExcluded.Add(c.SelfExcluded)
	mLBPruned.Add(c.LBPruned)
	mDistanceRejected.Add(c.DistRejected)
	mMatched.Add(c.Matched)
}
