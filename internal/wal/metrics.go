package wal

import "stsmatch/internal/obs"

// met bundles the WAL's handles into the shared default registry,
// following the same pattern as the store and fsm instrumentation.
var met = struct {
	records            *obs.Counter
	bytes              *obs.Counter
	appendErrors       *obs.Counter
	rotations          *obs.Counter
	activeBytes        *obs.Gauge
	fsyncSeconds       *obs.Histogram
	groupCommitSeconds *obs.Histogram
	snapshotSeconds    *obs.Histogram
	recoverySeconds    *obs.Histogram
	replayedRecords    *obs.Gauge
	truncatedRecords   *obs.Gauge
}{
	records: obs.Default().Counter("stsmatch_wal_records_total",
		"Records appended to the write-ahead log."),
	bytes: obs.Default().Counter("stsmatch_wal_bytes_total",
		"Bytes appended to the write-ahead log (framing included)."),
	appendErrors: obs.Default().Counter("stsmatch_wal_append_errors_total",
		"WAL writes that failed with a (sticky) I/O error."),
	rotations: obs.Default().Counter("stsmatch_wal_segment_rotations_total",
		"WAL segment rotations."),
	activeBytes: obs.Default().Gauge("stsmatch_wal_active_segment_bytes",
		"Size of the active WAL segment."),
	fsyncSeconds: obs.Default().Histogram("stsmatch_wal_fsync_seconds",
		"Duration of WAL fsync calls; its _count is the number of fsyncs.", obs.DefLatencyBuckets),
	groupCommitSeconds: obs.Default().Histogram("stsmatch_wal_group_commit_seconds",
		"Duration of a full group commit (buffer flush plus fsync).",
		obs.DefLatencyBuckets),
	snapshotSeconds: obs.Default().Histogram("stsmatch_wal_snapshot_seconds",
		"Duration of snapshot writes (serialize, fsync, rename, compact); its _count is the number of snapshots.",
		obs.DefLatencyBuckets),
	recoverySeconds: obs.Default().Histogram("stsmatch_wal_recovery_seconds",
		"Duration of crash recovery (snapshot load plus WAL replay).",
		obs.DefLatencyBuckets),
	replayedRecords: obs.Default().Gauge("stsmatch_wal_recovery_replayed_records",
		"WAL records replayed during the most recent recovery."),
	truncatedRecords: obs.Default().Gauge("stsmatch_wal_recovery_truncated_records",
		"Torn/corrupt WAL records truncated during the most recent recovery."),
}
