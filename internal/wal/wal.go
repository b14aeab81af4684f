// Package wal implements the durability subsystem for the stream
// database: an append-only, CRC-checksummed, versioned write-ahead log
// of store mutations with segment rotation, periodic compaction into
// binary snapshots (the snapshot payload is the store's own binary
// format), and a recovery path that loads the latest valid snapshot
// and replays the WAL tail, truncating at the first torn record.
//
// Layout of a data directory:
//
//	wal-<firstLSN hex>.log   log segments ("STWL" u16 version u64 firstLSN,
//	                         then framed records)
//	snap-<LSN hex>.db        snapshots ("STSS" u16 version u64 LSN,
//	                         open-session manifest, reserved byte,
//	                         subscriptions, migrations, store binary
//	                         payload — one format, see snapshot.go)
//
// Records are framed as u32 payload length | u32 CRC-32C | payload and
// carry their LSN; recovery verifies both the checksum and LSN
// contiguity. Appends are buffered and made durable by a group-commit
// flusher every Options.FsyncInterval (0 = synchronous fsync per
// append), so a crash loses at most one interval of acknowledged
// writes.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/obs"
)

const (
	segMagic = "STWL"
	// segVersion 3's subscription records carry no per-evaluation k,
	// version 2's did and version 1's promote records no followers; the
	// segments of either fail Open.
	segVersion = 3
	segHdrLen  = 4 + 2 + 8

	defaultSegmentMaxBytes = 64 << 20

	// keepSnapshots is how many snapshots survive compaction (the
	// newest ones): one to recover from plus one fallback if the newest
	// is itself torn.
	keepSnapshots = 2
)

// Options configures a Log.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string

	// FsyncInterval is the group-commit interval: buffered records are
	// flushed and fsynced together every interval. Zero means every
	// Append flushes and fsyncs before returning (maximum durability,
	// minimum throughput).
	FsyncInterval time.Duration

	// SegmentMaxBytes rotates the active segment once it exceeds this
	// size. Zero uses the 64 MiB default.
	SegmentMaxBytes int64

	// Collector, when set, receives trace data for slow group commits:
	// a flush (buffer write + fsync) at or above the collector's slow
	// threshold is recorded as a standalone single-span trace, so
	// ingest-ack stalls caused by the background flusher are visible in
	// /v1/traces even though the flusher has no request context.
	Collector *obs.Collector
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	return o
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use. I/O errors are sticky: once an append or flush fails, the log
// refuses further writes with the same error (the caller decides
// whether to keep serving without durability).
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segFirst uint64 // first LSN of the active segment
	size     int64  // bytes written to the active segment
	nextLSN  uint64
	dirty    bool
	err      error
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// errClosed is what every write to a closed log returns.
var errClosed = errors.New("wal: log is closed")

// Err returns the sticky I/O error, or errClosed once the log is
// closed; nil while the log accepts writes.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && l.closed {
		return errClosed
	}
	return l.err
}

// Append assigns the next LSN to rec and writes it to the active
// segment. The record is buffered; it becomes durable at the next
// group commit (or immediately when FsyncInterval is zero).
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.err != nil {
		return l.err
	}
	rec.LSN = l.nextLSN
	frame := appendFrame(nil, encodePayload(rec))
	if _, err := l.w.Write(frame); err != nil {
		l.fail(err)
		return l.err
	}
	l.nextLSN++
	l.size += int64(len(frame))
	l.dirty = true
	met.records.Inc()
	met.bytes.Add(len(frame))
	met.activeBytes.Set(l.size)
	if l.opts.FsyncInterval == 0 {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	if l.size >= l.opts.SegmentMaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// AppendCtx is Append with trace-context support: when ctx carries a
// span (obs.StartSpan), the append is recorded as a "wal.append" child
// span, annotated with whether it flushed synchronously (FsyncInterval
// zero) — the attribution for ingest acks stalled on per-append fsync.
func (l *Log) AppendCtx(ctx context.Context, rec Record) error {
	_, sp := obs.StartSpan(ctx, "wal.append")
	if sp == nil {
		return l.Append(rec)
	}
	defer sp.Finish()
	sp.Annotate("type", rec.Type.String())
	sp.Annotate("synced", l.opts.FsyncInterval == 0)
	err := l.Append(rec)
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	return err
}

// Sync forces buffered records to durable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// SyncCtx is Sync with trace-context support: a traced caller (e.g. a
// session close or promotion that must be durable before its ack)
// records the flush as a "wal.sync" child span.
func (l *Log) SyncCtx(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "wal.sync")
	if sp == nil {
		return l.Sync()
	}
	defer sp.Finish()
	err := l.Sync()
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	return err
}

// flushLocked writes the buffer to the file and fsyncs it.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.w.Flush(); err != nil {
		l.fail(err)
		return l.err
	}
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		l.fail(err)
		return l.err
	}
	now := time.Now()
	met.fsyncSeconds.Observe(now.Sub(syncStart).Seconds())
	met.groupCommitSeconds.Observe(now.Sub(start).Seconds())
	// A slow group commit is the classic silent ingest-ack stall; the
	// collector keeps it (slow ring only — a healthy flush cadence must
	// not crowd out request traces), and only a kept one is built.
	if d := now.Sub(start); l.opts.Collector.KeepsSlow(d) {
		obs.RecordStandalone(l.opts.Collector, "wal", "wal.group_commit", start, d, map[string]any{
			"fsyncMs":      float64(now.Sub(syncStart)) / float64(time.Millisecond),
			"segmentBytes": l.size,
		})
	}
	l.dirty = false
	return nil
}

// rotateLocked seals the active segment and opens a fresh one whose
// first LSN is nextLSN.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.fail(err)
		return l.err
	}
	if err := l.openSegmentLocked(l.nextLSN); err != nil {
		return err
	}
	met.rotations.Inc()
	return nil
}

// openSegmentLocked creates segment wal-<firstLSN>.log and writes its
// header.
func (l *Log) openSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(l.opts.Dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		l.fail(err)
		return l.err
	}
	hdr := binary.LittleEndian.AppendUint64(binfmt.AppendHeader(nil, segMagic, segVersion), firstLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		l.fail(err)
		return l.err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.fail(err)
		return l.err
	}
	// Appends acknowledged into a segment whose directory entry is lost
	// in a crash are lost with it.
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		l.fail(err)
		return l.err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segFirst = firstLSN
	l.size = segHdrLen
	l.dirty = false
	met.activeBytes.Set(l.size)
	return nil
}

// resumeSegmentLocked reopens an existing segment for appending at
// offset end (the end of its last valid record).
func (l *Log) resumeSegmentLocked(firstLSN uint64, end int64) error {
	path := filepath.Join(l.opts.Dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		l.fail(err)
		return l.err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		l.fail(err)
		return l.err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segFirst = firstLSN
	l.size = end
	l.dirty = false
	met.activeBytes.Set(l.size)
	return nil
}

// fail records a sticky I/O error.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
		met.appendErrors.Inc()
	}
}

// Close flushes and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	flushErr := l.flushLocked()
	if l.f != nil {
		if err := l.f.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
		l.f = nil
	}
	return flushErr
}

// flusher is the group-commit loop.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Sync() //nolint:errcheck // sticky error surfaces on the next Append
		}
	}
}

// segmentName formats the file name of the segment starting at lsn.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%016x.log", lsn) }

// snapshotName formats the file name of the snapshot taken at lsn.
func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%016x.db", lsn) }

// parseSeqName extracts the LSN from a segment or snapshot file name.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSeq returns the LSNs of all files matching prefix/suffix in dir,
// ascending.
func listSeq(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if v, ok := parseSeqName(e.Name(), prefix, suffix); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs a directory so that the creates, renames and removals
// in it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsyncDir(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// The file-system calls whose failure the recovery tests provoke: the
// directory fsync, and the cuts Open makes at a tear.
var (
	fsyncDir = (*os.File).Sync
	truncate = os.Truncate
	remove   = os.Remove
)
