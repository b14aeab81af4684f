// Durability wiring: the server opens/recovers the write-ahead log at
// construction, replays it into the live database, resumes the
// sessions that were open at the crash (fresh segmenters re-primed
// from the recovered PLR tail), and snapshots periodically plus on
// graceful shutdown. What is journaled is decided where it is built:
// each writer (create, ingest, close, promote, subscriptions,
// migration, and the follower) appends its own records.

package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"stsmatch/internal/frame"
	"stsmatch/internal/fsm"
	"stsmatch/internal/store"
	"stsmatch/internal/wal"
)

// Options configures the server's durability subsystem. The zero
// value disables it (fully in-memory, the pre-durability behavior).
type Options struct {
	// DataDir enables durability: WAL segments and snapshots live
	// here. Empty disables the subsystem entirely.
	DataDir string

	// FsyncInterval is the WAL group-commit interval. Ingestion
	// responses are acknowledged as soon as records are buffered, so a
	// crash loses at most one interval of samples. Zero fsyncs every
	// append (durable before ack, slower).
	FsyncInterval time.Duration

	// SnapshotEvery compacts the WAL into a snapshot on this period.
	// Zero snapshots only on graceful shutdown.
	SnapshotEvery time.Duration

	// AdvertiseURL is this node's base URL as replicas should see it;
	// it is stamped into shipped batches as the source and checked
	// against the receivers' ReplicateFrom allowlists.
	AdvertiseURL string

	// ReplicateFrom restricts POST /v1/replicate to batches whose
	// source is in this list. Empty accepts any source.
	ReplicateFrom []string

	// ReplicateTransport overrides the transport of this node's calls
	// to other shards: replication shipments and migration promotes
	// (tests inject fault-injecting transports here). Nil uses the frame
	// carrier (internal/frame).
	ReplicateTransport http.RoundTripper

	// TraceSlowThreshold is the latency at or above which a trace is
	// pinned in the slow ring (and slow WAL group commits are captured).
	// 0 selects obs.DefaultSlowThreshold, which the daemon runs at; tests
	// lower it to see a slow trace kept.
	TraceSlowThreshold time.Duration
}

// DefaultMaxBodyBytes caps request bodies on the body-accepting
// endpoints (session create, sample ingest, remote match) via
// http.MaxBytesReader, so a misbehaving client cannot balloon a shard's
// memory: 8 MiB holds ~100k samples per ingest batch, far above any
// sane client.
const DefaultMaxBodyBytes = 8 << 20

// durability is the server's handle on the WAL subsystem.
type durability struct {
	log      *wal.Log
	failLog  sync.Once // logs the log's first failure
	snapStop chan struct{}
	snapDone chan struct{}
	stopOnce sync.Once
}

// openDurability recovers (or initializes) the data dir, installs the
// recovered database as s.db and the interpreter that rebuilt it as
// s.replay, and rebuilds open sessions and subscriptions. A session
// whose migration prepare survived resumes fenced: a cutover was racing
// when the node went down, and the migration's re-drive completes or
// aborts it.
func (s *Server) openDurability(initial *store.DB, opts Options) error {
	log, res, err := wal.Open(wal.Options{
		Dir:           opts.DataDir,
		FsyncInterval: opts.FsyncInterval,
		Collector:     s.col,
	}, initial)
	if err != nil {
		return fmt.Errorf("server: opening WAL: %w", err)
	}
	d := &durability{log: log}
	s.db, s.replay = res.DB, res.Replay
	if !res.Fresh {
		if initial != nil && initial.NumPatients() > 0 {
			s.log.Warn("data dir holds recovered state; preloaded database ignored",
				slog.String("dataDir", opts.DataDir))
		}
		s.log.Info("recovered from data dir",
			slog.String("dataDir", opts.DataDir),
			slog.Uint64("snapshotLsn", res.SnapshotLSN),
			slog.Uint64("recordsReplayed", res.RecordsReplayed),
			slog.Uint64("recordsTruncated", res.RecordsTruncated),
			slog.Int64("bytesTruncated", res.BytesTruncated),
			slog.Int("patients", s.db.NumPatients()),
			slog.Int("vertices", s.db.NumVertices()),
			slog.Duration("took", res.Duration))
	}

	// Resume the sessions that were open at the crash: the stream (and
	// its vertices) came back via snapshot+replay; the segmenter is
	// fresh and re-primed from the PLR tail, and the replicator ships to
	// the journaled followers at the journaled epoch.
	for _, ss := range res.Sessions {
		sess, err := s.resumeSession(ss)
		if err != nil {
			s.log.Warn("could not resume session",
				slog.String("sessionId", ss.SessionID), slog.Any("err", err))
			continue
		}
		s.open(sess)
	}
	// Re-arm the snapshot's subscriptions, then apply the log tail's
	// subscription history on top.
	for i := range res.Subscriptions {
		st := res.Subscriptions[i]
		if _, err := s.subs.Register(&st, nil); err != nil {
			s.log.Warn("could not re-arm subscription", slog.String("id", st.ID), slog.Any("err", err))
		}
	}
	s.applySubOps(context.Background(), res.SubOps)

	s.wal = d
	if opts.SnapshotEvery > 0 {
		d.snapStop = make(chan struct{})
		d.snapDone = make(chan struct{})
		go s.snapshotLoop(opts.SnapshotEvery)
	}
	return nil
}

// resumeSession rebuilds one live session from stored state — crash
// recovery's, or a replica's at promotion — around the stream in the
// database, a fresh segmenter re-primed from its PLR tail and a
// replicator at ss's epoch and followers. The caller opens it.
func (s *Server) resumeSession(ss wal.SessionState) (*session, error) {
	p := s.db.Patient(ss.PatientID)
	if p == nil {
		return nil, fmt.Errorf("resumed session references unknown patient %q", ss.PatientID)
	}
	st := p.StreamBySession(ss.SessionID)
	if st == nil {
		return nil, fmt.Errorf("resumed session references unknown stream %q", ss.SessionID)
	}
	seg, err := fsm.New(s.segCfg)
	if err != nil {
		return nil, err
	}
	// Only the tail the segmenter re-warms from is copied out of the
	// stream's columns.
	view := st.ScanView("")
	n := view.Len()
	tail := min(n, s.segCfg.SlopeWindow)
	if err := seg.Prime(view.Window(n-tail, tail)); err != nil {
		return nil, fmt.Errorf("priming segmenter: %w", err)
	}
	sess := &session{
		patientID: ss.PatientID,
		sessionID: ss.SessionID,
		seg:       seg,
		stream:    st,
		samples:   int(ss.Samples),
		lastT:     ss.LastT,
		lastPos:   append([]float64(nil), ss.LastPos...),
		repl:      newReplicator(ss.PatientID, ss.SessionID, s.advertise, ss.Epoch, ss.Followers),
		acked:     n, // any of it may have been acknowledged
	}
	if n > 0 {
		last := view.Vertex(n - 1)
		// The anchor record can lag the last replayed vertex when the
		// crash clipped the final anchor; never resume behind the PLR.
		if sess.lastT < last.T {
			sess.lastT = last.T
			sess.lastPos = append([]float64(nil), last.Pos...)
		}
	}
	return sess, nil
}

// applySubOps applies subscription history in log order — recovery's
// log tail and a follower's applied records alike: upserts, deletes,
// acks, and the vertex-append boundaries recorded while any
// subscription was live. Because streams are append-only, re-running
// each incremental evaluation up to its boundary re-derives exactly the
// event sequence the node that journaled it emitted (same matches, same
// event sequence numbers), so consumers resuming with Last-Event-ID
// observe no duplicates and no gaps.
func (s *Server) applySubOps(ctx context.Context, ops []wal.SubReplayOp) {
	for _, op := range ops {
		switch {
		case op.Upsert != nil:
			// A subscription spanning several sessions arrives on every
			// link and is journaled as it came; only the newest copy
			// (NextSeq is monotone) applies, so a stale duplicate cannot
			// rewind the event stream.
			if cur, ok := s.subs.State(op.Upsert.ID); ok && cur.NextSeq > op.Upsert.NextSeq {
				continue
			}
			st := *op.Upsert
			if _, err := s.subs.Register(&st, nil); err != nil {
				s.log.Warn("could not re-arm subscription", slog.String("id", st.ID), slog.Any("err", err))
			}
		case op.DeleteID != "":
			s.subs.Delete(op.DeleteID)
		case op.AckID != "":
			s.subs.Ack(op.AckID, op.Ack)
		default:
			s.subs.EvalStream(ctx, s.db, op.PatientID, op.SessionID, uint64(op.To))
		}
	}
}

// walAppend journals one record, logging the log's first failure.
func (s *Server) walAppend(rec wal.Record) {
	s.walAppendCtx(context.Background(), rec)
}

// walAppendCtx is walAppend on a request context: a traced request's
// journal write shows up as a "wal.append" child span, so a per-append
// fsync stall is attributable to the request it delayed.
func (s *Server) walAppendCtx(ctx context.Context, rec wal.Record) {
	if s.wal == nil {
		return
	}
	if err := s.wal.log.AppendCtx(ctx, rec); err != nil {
		s.walFailed(err)
	}
}

// walFailed logs the log's first failure. The error is sticky in the
// log, which healthz reads; this only tells the operator when.
func (s *Server) walFailed(err error) {
	s.wal.failLog.Do(func() {
		s.log.Error("WAL failed; serving without durability, healthz answers 503",
			slog.Any("err", err))
	})
}

// journalSync journals one record and fsyncs it before returning: the
// write a handler is about to acknowledge as durable. On failure the
// caller must not acknowledge. A no-op on in-memory servers.
func (s *Server) journalSync(ctx context.Context, rec wal.Record) error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.log.AppendCtx(ctx, rec)
	if err == nil {
		err = s.wal.log.SyncCtx(ctx)
	}
	if err != nil {
		s.walFailed(err)
	}
	return err
}

// decide journals and fsyncs a record that decides a session's owner
// (promote, close) or migration phase, then applies it to s.replay as
// recovery would, so the node's table of such decisions is the same
// live as after a restart. On failure nothing is decided. Callers hold
// s.mu.
func (s *Server) decide(ctx context.Context, rec wal.Record) error {
	if err := s.journalSync(ctx, rec); err != nil {
		return err
	}
	_, err := s.replay.Apply(rec)
	return err
}

// sessionStates snapshots the open sessions. Callers hold s.mu.
func (s *Server) sessionStates() []wal.SessionState {
	out := make([]wal.SessionState, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, wal.SessionState{
			PatientID: sess.patientID,
			SessionID: sess.sessionID,
			Samples:   uint64(sess.samples),
			LastT:     sess.lastT,
			LastPos:   append([]float64(nil), sess.lastPos...),
			Epoch:     sess.repl.epoch,
			Followers: sess.repl.followers,
		})
	}
	return out
}

// anchorRecord is the session's raw-sample anchor as a record, its
// position copied so the record can outlive s.mu.
func (sess *session) anchorRecord() wal.Record {
	return wal.Record{
		Type:      wal.TypeSessionAnchor,
		PatientID: sess.patientID,
		SessionID: sess.sessionID,
		Samples:   uint64(sess.samples),
		AnchorT:   sess.lastT,
		AnchorPos: append([]float64(nil), sess.lastPos...),
	}
}

// ownerRecord journals this node as the session's owner — at create and
// at promotion — with what recovery resumes it from: the anchor (copied,
// for s.replay keeps the record), the epoch and the followers.
func (sess *session) ownerRecord() wal.Record {
	return wal.Record{
		Type:      wal.TypeReplicaPromote,
		PatientID: sess.patientID,
		SessionID: sess.sessionID,
		Samples:   uint64(sess.samples),
		AnchorT:   sess.lastT,
		AnchorPos: append([]float64(nil), sess.lastPos...),
		Epoch:     sess.repl.epoch,
		Followers: sess.repl.followers,
	}
}

// snapshot compacts the WAL into a snapshot. It holds the session
// lock so the database is quiescent, making the snapshot exact.
func (s *Server) snapshot() error {
	if s.wal == nil {
		return nil
	}
	s.lock()
	defer s.mu.Unlock()
	lsn, err := s.wal.log.Snapshot(s.db, s.sessionStates(), s.subs.States(), s.replay.Migrations()...)
	if err != nil {
		s.log.Error("snapshot failed", slog.Any("err", err))
		return err
	}
	s.log.Info("snapshot written",
		slog.Uint64("lsn", lsn),
		slog.Int("vertices", s.db.NumVertices()),
		slog.Int("openSessions", len(s.sessions)))
	return nil
}

// snapshotLoop runs periodic snapshots until Close.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.wal.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.wal.snapStop:
			return
		case <-t.C:
			s.snapshot() //nolint:errcheck // logged inside
		}
	}
}

// Close closes the framed connections served and dialed (an exchange in
// flight first ends), flushes the WAL, takes a final snapshot, and
// releases the data dir. Call it after the HTTP listener has drained so
// no requests race the final snapshot.
func (s *Server) Close() error {
	liveServer.CompareAndSwap(s, nil)
	s.frames.Close()
	if t, ok := s.peers.(*frame.Transport); ok {
		t.Close()
	}
	if s.wal == nil {
		return nil
	}
	var err error
	s.wal.stopOnce.Do(func() {
		if s.wal.snapStop != nil {
			close(s.wal.snapStop)
			<-s.wal.snapDone
		}
		err = s.snapshot()
		if cerr := s.wal.log.Close(); err == nil {
			err = cerr
		}
	})
	return err
}
