// Durability wiring: the server opens/recovers the write-ahead log at
// construction, replays it into the live database, resumes the
// sessions that were open at the crash (fresh segmenters re-primed
// from the recovered PLR tail), journals every subsequent mutation
// through the store's mutation hook, and snapshots periodically plus
// on graceful shutdown.

package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
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

	// MaxBodyBytes caps request bodies on the body-accepting endpoints
	// (session create, sample ingest, remote match) via
	// http.MaxBytesReader, so a misbehaving client cannot balloon a
	// shard's memory. 0 selects DefaultMaxBodyBytes; negative disables
	// the cap.
	MaxBodyBytes int64

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

	// TraceCapacity bounds the in-memory trace collector's rings (both
	// recent and slow). 0 selects obs.DefaultTraceCapacity.
	TraceCapacity int

	// TraceSlowThreshold is the latency at or above which a trace is
	// pinned in the slow ring (and slow WAL group commits are captured).
	// 0 selects obs.DefaultSlowThreshold.
	TraceSlowThreshold time.Duration

	// SubscriptionBuffer caps each standing subscription's undelivered
	// event buffer; the oldest events are dropped (and counted) past
	// it. 0 selects subscribe.DefaultBuffer.
	SubscriptionBuffer int
}

// DefaultMaxBodyBytes is the default request-body cap: 8 MiB holds
// ~100k samples per ingest batch, far above any sane client.
const DefaultMaxBodyBytes = 8 << 20

// durability is the server's handle on the WAL subsystem.
type durability struct {
	log      *wal.Log
	recovery *wal.RecoveryResult
	dataDir  string
	resumed  int

	lastErr  atomic.Value // string: sticky append-failure note for healthz
	snapStop chan struct{}
	snapDone chan struct{}
	stopOnce sync.Once
}

// openDurability recovers (or initializes) the data dir, installs the
// recovered database as s.db, rebuilds open sessions, and hooks the
// store so every further mutation is journaled.
func (s *Server) openDurability(initial *store.DB, opts Options) error {
	log, res, err := wal.Open(wal.Options{
		Dir:           opts.DataDir,
		FsyncInterval: opts.FsyncInterval,
		Collector:     s.col,
	}, initial)
	if err != nil {
		return fmt.Errorf("server: opening WAL: %w", err)
	}
	d := &durability{log: log, recovery: res, dataDir: opts.DataDir}
	s.db = res.DB
	if !res.Fresh {
		s.db.EnableIndexes()
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
	// fresh and re-primed from the PLR tail.
	for _, ss := range res.Sessions {
		sess, err := s.resumeSession(ss)
		if err != nil {
			s.log.Warn("could not resume session",
				slog.String("sessionId", ss.SessionID), slog.Any("err", err))
			continue
		}
		s.sessions[ss.SessionID] = sess
		d.resumed++
	}
	s.met.sessionsOpen.Set(int64(len(s.sessions)))
	s.replaySubscriptions(res)

	// Re-seed migration state. A committed entry is a tombstone (the
	// session lives elsewhere; stale routes get 410 + redirect). A
	// prepared entry whose session resumed above means we crashed inside
	// the cutover window: resume *fenced* so no write can diverge from a
	// target that may already be primary; the migration's re-drive (from
	// the gateway) completes or aborts it.
	for i := range res.Migrations {
		m := res.Migrations[i]
		s.migrations[m.SessionID] = &m
		if m.Phase == wal.MigratePrepare {
			if sess, ok := s.sessions[m.SessionID]; ok {
				sess.fenced = true
			}
		}
	}

	s.db.SetMutationHook(s.onMutation)
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
// database and a fresh segmenter re-primed from its PLR tail. The
// caller installs it in s.sessions.
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
		resumed:   true,
	}
	if n > 0 {
		last := view.Vertex(n - 1)
		sess.resumedAt = last.T
		// The anchor record can lag the last replayed vertex when the
		// crash clipped the final anchor; never resume behind the PLR.
		if sess.lastT < last.T {
			sess.lastT = last.T
			sess.lastPos = append([]float64(nil), last.Pos...)
		}
	}
	return sess, nil
}

// replaySubscriptions re-arms the subscriptions persisted in the
// snapshot, then replays the logged subscription operations — upserts,
// deletes, acks, and the vertex-append boundaries recorded while any
// subscription was live — in log order. Because streams are
// append-only, re-running each incremental evaluation up to its logged
// boundary re-derives exactly the pre-crash event sequence (same
// matches, same event sequence numbers), so consumers resuming with
// Last-Event-ID observe no duplicates and no gaps.
func (s *Server) replaySubscriptions(res *wal.RecoveryResult) {
	for i := range res.Subscriptions {
		st := res.Subscriptions[i]
		if _, err := s.subs.Register(&st, nil); err != nil {
			s.log.Warn("could not re-arm subscription",
				slog.String("id", st.ID), slog.Any("err", err))
		}
	}
	ctx := context.Background()
	for _, op := range res.SubOps {
		switch {
		case op.Upsert != nil:
			st := *op.Upsert
			if _, err := s.subs.Register(&st, nil); err != nil {
				s.log.Warn("could not re-arm subscription",
					slog.String("id", st.ID), slog.Any("err", err))
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

// onMutation is the store hook: translate each mutation into a WAL
// record. Append errors are sticky in the log; the server keeps
// serving (availability over durability) and surfaces the degradation
// in /v1/healthz and the error log.
func (s *Server) onMutation(m store.Mutation) {
	var rec wal.Record
	switch m.Kind {
	case store.MutPatientUpsert:
		rec = wal.Record{Type: wal.TypePatientUpsert, Patient: m.Patient}
	case store.MutStreamOpen:
		rec = wal.Record{Type: wal.TypeStreamOpen, PatientID: m.PatientID, SessionID: m.SessionID}
	case store.MutVertexAppend:
		rec = wal.Record{Type: wal.TypeVertexAppend, PatientID: m.PatientID, SessionID: m.SessionID, Vertices: m.Vertices}
	default:
		return
	}
	s.walAppend(rec)
}

// walAppend journals one record, recording (and logging once) any
// sticky failure.
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
		if s.wal.lastErr.Load() == nil {
			s.log.Error("WAL append failed; serving without durability",
				slog.Any("err", err))
		}
		s.wal.lastErr.Store(err.Error())
	}
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
		s.wal.lastErr.Store(err.Error())
	}
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
		})
	}
	return out
}

// snapshot compacts the WAL into a snapshot. It holds the session
// lock so the database is quiescent, making the snapshot exact.
func (s *Server) snapshot() error {
	if s.wal == nil {
		return nil
	}
	s.lock()
	defer s.mu.Unlock()
	lsn, err := s.wal.log.Snapshot(s.db, s.sessionStates(), s.subs.States(), s.migrationStates()...)
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

// WALHealth is the durability section of the healthz payload.
type WALHealth struct {
	Enabled          bool   `json:"enabled"`
	DataDir          string `json:"dataDir,omitempty"`
	SnapshotLSN      uint64 `json:"snapshotLsn,omitempty"`
	RecordsReplayed  uint64 `json:"recordsReplayed"`
	RecordsTruncated uint64 `json:"recordsTruncated"`
	BytesTruncated   int64  `json:"bytesTruncated"`
	ResumedSessions  int    `json:"resumedSessions"`
	NextLSN          uint64 `json:"nextLsn"`
	LastError        string `json:"lastError,omitempty"`
}

// walHealth summarizes the durability subsystem for /v1/healthz.
func (s *Server) walHealth() *WALHealth {
	if s.wal == nil {
		return nil
	}
	h := &WALHealth{
		Enabled:          true,
		DataDir:          s.wal.dataDir,
		SnapshotLSN:      s.wal.recovery.SnapshotLSN,
		RecordsReplayed:  s.wal.recovery.RecordsReplayed,
		RecordsTruncated: s.wal.recovery.RecordsTruncated,
		BytesTruncated:   s.wal.recovery.BytesTruncated,
		ResumedSessions:  s.wal.resumed,
		NextLSN:          s.wal.log.NextLSN(),
	}
	if e := s.wal.lastErr.Load(); e != nil {
		h.LastError = e.(string)
	}
	return h
}
