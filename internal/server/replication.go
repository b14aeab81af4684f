// Replication: a primary ships each replicated session's WAL records
// to follower shards over POST /v1/replicate, synchronously with the
// ingest ack, so killing the primary loses no acknowledged vertex as
// long as one replica survives. Followers apply the records through
// the store (journaling them into their own WAL) but do not run a
// segmenter; POST /v1/sessions/{sid}/promote turns a caught-up replica
// into the live primary using the same resume path crash recovery
// uses, fenced against the deposed primary by a bumped epoch.
//
// Per-link sequencing: every replica link numbers its shipped records
// independently (dense, 1-based, carried in the record's LSN slot), so
// a follower's wal.Cursor detects drops and reorders without any
// cross-replica coordination. A gap (HTTP 409) or an overflowing
// pending queue collapses the link to snapshot catch-up: the next
// shipment is a single TypeReplicaSnapshot record carrying the
// session's complete state, which re-anchors the follower's cursor. A
// deposed primary is answered with HTTP 412 (stale epoch) and stops
// shipping.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/store"
	"stsmatch/internal/wal"
)

// DefaultReplicateTimeout bounds one replication shipment; ingest acks
// wait on it, so it is deliberately short.
const DefaultReplicateTimeout = 5 * time.Second

// maxPendingRecords caps a link's unshipped backlog; past it the link
// collapses to snapshot catch-up instead of buffering without bound.
const maxPendingRecords = 1024

// replicator ships one session's records to its replica set.
type replicator struct {
	mu        sync.Mutex
	patientID string
	sessionID string
	source    string // primary's advertised base URL
	epoch     uint64
	deposed   bool // a replica rejected us with a newer epoch
	links     []*replicaLink
}

// errFenced is a link's answer from a replica that follows (or serves)
// the session under a newer epoch.
var errFenced = errors.New("fenced by newer epoch")

// replicaLink is one primary→replica shipping lane.
type replicaLink struct {
	target   string
	nextSeq  uint64       // next sequence number to assign (1-based)
	pending  []wal.Record // enqueued, not yet acknowledged by the replica
	needSnap bool         // next shipment must be a full snapshot
	lastErr  string

	// handoff marks the link a migration added for its target (see
	// migration.go): its traffic is counted as migration bytes, and a
	// rolled-back hand-off removes it again.
	handoff bool

	// shipMu serializes shipments on this link so concurrent ingest
	// flushes cannot interleave batches. Held across the HTTP call;
	// never acquired while holding replicator.mu.
	shipMu sync.Mutex
}

// newReplicator builds the shipping state for a session. snapshotFirst
// marks every link for snapshot catch-up before normal shipping — the
// mode a freshly promoted primary starts in, since its sequence
// numbering has no relation to the deposed primary's.
func newReplicator(patientID, sessionID, source string, epoch uint64, targets []string, snapshotFirst bool) *replicator {
	r := &replicator{patientID: patientID, sessionID: sessionID, source: source, epoch: epoch}
	for _, t := range targets {
		r.links = append(r.links, &replicaLink{target: t, nextSeq: 1, needSnap: snapshotFirst})
	}
	return r
}

// enqueue stages records on every link, assigning per-link sequence
// numbers. Callers hold s.mu (the session lock), which is what orders
// enqueues; records must be staged in apply order.
func (r *replicator) enqueue(recs ...wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, link := range r.links {
		if link.needSnap {
			// The backlog is superseded by the snapshot the next flush
			// ships; buffering more would only be thrown away then.
			continue
		}
		for _, rec := range recs {
			rec.LSN = link.nextSeq
			link.nextSeq++
			link.pending = append(link.pending, rec)
		}
		if len(link.pending) > maxPendingRecords {
			link.pending = nil
			link.needSnap = true
		}
	}
}

// handoffLink returns the link shipping to target, adding one when
// target does not follow the session yet: snapshot-first, exactly what
// a freshly promoted primary's links are.
func (r *replicator) handoffLink(target string) *replicaLink {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, link := range r.links {
		if link.target == target {
			return link
		}
	}
	link := &replicaLink{target: target, nextSeq: 1, needSnap: true, handoff: true}
	r.links = append(r.links, link)
	return link
}

// unlink removes the links drop selects and reports how many remain.
func (r *replicator) unlink(drop func(*replicaLink) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.links[:0]
	for _, link := range r.links {
		if !drop(link) {
			kept = append(kept, link)
		}
	}
	r.links = kept
	return len(kept)
}

// ReplLinkStatus is one primary→replica shipping lane's sequence
// state, exposed in /v1/shard/stats and /v1/healthz so operators can
// see which replica is behind.
type ReplLinkStatus struct {
	Target string `json:"target"`
	// ShippedSeq is the highest sequence number assigned on this link
	// (records staged for shipment); AckedSeq is the highest the
	// replica has contiguously acknowledged. Their difference is the
	// link's in-flight backlog in records.
	ShippedSeq uint64 `json:"shippedSeq"`
	AckedSeq   uint64 `json:"ackedSeq"`
	// SnapshotPending marks a link collapsed to snapshot catch-up: the
	// next shipment re-anchors the follower with full session state.
	SnapshotPending bool   `json:"snapshotPending,omitempty"`
	LastError       string `json:"lastError,omitempty"`
}

// linkStatuses snapshots every link's sequence state.
func (r *replicator) linkStatuses() []ReplLinkStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplLinkStatus, 0, len(r.links))
	for _, link := range r.links {
		shipped := link.nextSeq - 1
		out = append(out, ReplLinkStatus{
			Target:          link.target,
			ShippedSeq:      shipped,
			AckedSeq:        shipped - uint64(len(link.pending)),
			SnapshotPending: link.needSnap,
			LastError:       link.lastErr,
		})
	}
	return out
}

// lag returns the largest unacknowledged backlog across links. A link
// in snapshot catch-up counts as one pending shipment.
func (r *replicator) lag() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	maxLag := 0
	for _, link := range r.links {
		n := len(link.pending)
		if link.needSnap {
			n++
		}
		if n > maxLag {
			maxLag = n
		}
	}
	return maxLag
}

// flush synchronously ships every link's backlog and returns one error
// string per link that could not be brought current. Callers must NOT
// hold s.mu: snapshot catch-up re-acquires it to read session state.
// The context carries the request's trace and request ID across the
// shipments, so a synchronous replication stall shows up as repl.ship
// spans inside the ingest trace.
func (s *Server) replFlush(ctx context.Context, r *replicator) []string {
	r.mu.Lock()
	links := append([]*replicaLink(nil), r.links...)
	deposed := r.deposed
	r.mu.Unlock()
	if deposed {
		return []string{"replication fenced: a replica reported a newer epoch"}
	}
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []string
	)
	for _, link := range links {
		wg.Add(1)
		go func(link *replicaLink) {
			defer wg.Done()
			if err := s.flushLink(ctx, r, link); err != nil {
				emu.Lock()
				errs = append(errs, fmt.Sprintf("%s: %v", link.target, err))
				emu.Unlock()
			}
		}(link)
	}
	wg.Wait()
	return errs
}

// flushLink brings one link current: ships the pending backlog, or a
// full snapshot when the link needs catch-up.
func (s *Server) flushLink(ctx context.Context, r *replicator, link *replicaLink) error {
	link.shipMu.Lock()
	defer link.shipMu.Unlock()

	for attempt := 0; attempt < 2; attempt++ {
		var batch wal.Batch
		r.mu.Lock()
		needSnap := link.needSnap
		if !needSnap {
			if len(link.pending) == 0 {
				r.mu.Unlock()
				return nil
			}
			batch = r.batch(append([]wal.Record(nil), link.pending...))
		}
		r.mu.Unlock()
		if needSnap {
			var ok bool
			batch, ok = s.snapshotBatch(r, link)
			if !ok {
				return errors.New("session gone before snapshot catch-up")
			}
			s.met.replSnapshots.Inc()
		}

		status, sent, err := s.shipBatch(ctx, link.target, batch)
		switch {
		case err == nil && status == http.StatusOK:
			r.mu.Lock()
			// Drop everything the replica now has; records enqueued
			// during the shipment stay pending.
			acked := batch.FirstSeq + uint64(len(batch.Records))
			kept := link.pending[:0]
			for _, rec := range link.pending {
				if rec.LSN >= acked {
					kept = append(kept, rec)
				}
			}
			link.pending = kept
			link.lastErr = ""
			retry := len(link.pending) > 0 || link.needSnap
			r.mu.Unlock()
			s.met.replShipped.Add(len(batch.Records))
			if link.handoff {
				s.met.migrationBytes.Add(sent)
			}
			if !retry {
				return nil
			}
			continue // ship the records that arrived mid-flight
		case err == nil && status == http.StatusConflict:
			// Sequence gap on the replica: catch up with a snapshot.
			r.mu.Lock()
			link.needSnap = true
			link.pending = nil
			r.mu.Unlock()
			continue
		case err == nil && status == http.StatusPreconditionFailed:
			// The replica follows a newer epoch: we are deposed. Stop
			// shipping; the new primary owns the session now.
			r.mu.Lock()
			r.deposed = true
			link.lastErr = errFenced.Error()
			r.mu.Unlock()
			s.met.replShipErrors.Inc()
			return errFenced
		default:
			if err == nil {
				err = fmt.Errorf("replica answered %d", status)
			}
			r.mu.Lock()
			if needSnap {
				link.needSnap = true // the snapshot never landed
			}
			link.lastErr = err.Error()
			r.mu.Unlock()
			s.met.replShipErrors.Inc()
			return err
		}
	}
	return errors.New("replica still behind after snapshot catch-up")
}

// snapshotBatch builds a single-record snapshot shipment carrying the
// session's complete state. It holds s.mu (then r.mu) so no enqueue
// can slip a record between the state read and the backlog reset —
// every staged-then-discarded record's effect is inside the snapshot.
func (s *Server) snapshotBatch(r *replicator, link *replicaLink) (wal.Batch, bool) {
	s.lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[r.sessionID]
	if !ok {
		return wal.Batch{}, false
	}
	var info store.PatientInfo
	if p := s.db.Patient(r.patientID); p != nil {
		info = p.Info
	}
	view := sess.stream.ScanView("") // its copy for the encoder goes with the batch
	snap := wal.Record{
		Type:      wal.TypeReplicaSnapshot,
		Patient:   info,
		PatientID: r.patientID,
		SessionID: r.sessionID,
		Vertices:  view.Window(0, view.Len()),
		Samples:   uint64(sess.samples),
		AnchorT:   sess.lastT,
		AnchorPos: append([]float64(nil), sess.lastPos...),
	}
	// Ship the standing subscriptions scoped to this session along with
	// the snapshot, so a fresh (or lapsed) follower arms them before any
	// incremental appends arrive — a later promote then already has the
	// subscription state without any extra catch-up protocol.
	subs := s.subs.StatesInScope(r.patientID, r.sessionID)
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.LSN = link.nextSeq
	link.nextSeq++
	recs := make([]wal.Record, 0, 1+len(subs))
	recs = append(recs, snap)
	for i := range subs {
		rec := wal.Record{Type: wal.TypeSubUpsert, Sub: &subs[i], LSN: link.nextSeq}
		link.nextSeq++
		recs = append(recs, rec)
	}
	link.pending = nil
	link.needSnap = false
	return r.batch(recs), true
}

// batch wraps sequenced records into one shipment of this session.
func (r *replicator) batch(recs []wal.Record) wal.Batch {
	return wal.Batch{
		Source:    r.source,
		SessionID: r.sessionID,
		PatientID: r.patientID,
		Epoch:     r.epoch,
		FirstSeq:  recs[0].LSN,
		Records:   recs,
	}
}

// shipBatch POSTs one encoded batch to a replica's /v1/replicate. A
// traced caller gets a "repl.ship" span per shipment (target, record
// count, snapshot-or-incremental, status), and the trace context plus
// request ID propagate to the follower, so one ingest's trace spans
// primary and replicas alike.
func (s *Server) shipBatch(ctx context.Context, target string, b wal.Batch) (status, sent int, err error) {
	sctx, sp := obs.StartSpan(ctx, "repl.ship")
	defer sp.Finish()
	sp.Annotate("target", target)
	sp.Annotate("sessionId", b.SessionID)
	sp.Annotate("records", len(b.Records))
	if len(b.Records) == 1 && b.Records[0].Type == wal.TypeReplicaSnapshot {
		sp.Annotate("snapshot", true)
	}
	payload := wal.EncodeBatch(b)
	status, _, err = s.callPeer(sctx, target+"/v1/replicate", "application/octet-stream", payload)
	if err != nil {
		sp.Annotate("error", err.Error())
		return 0, 0, err
	}
	sp.Annotate("status", status)
	return status, len(payload), nil
}

// callPeer POSTs one request to another shard through s.peers under
// DefaultReplicateTimeout, with the trace context and request ID, and
// returns the status and up to 1 MiB of the reply.
func (s *Server) callPeer(ctx context.Context, url, ctype string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, DefaultReplicateTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	obs.InjectHeaders(ctx, req.Header)
	resp, err := s.peers.RoundTrip(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, data, err
}

// replicaState is a follower's view of one replicated session: the
// stream data lives in the database (and the follower's own WAL); this
// tracks the cursor and the prediction anchor needed for promotion.
type replicaState struct {
	patientID string
	source    string
	cursor    wal.Cursor
	stream    *store.Stream
	samples   uint64
	lastT     float64
	lastPos   []float64
}

// ReplicateResponse acknowledges an applied batch.
type ReplicateResponse struct {
	NextSeq uint64 `json:"nextSeq"`
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

// handleReplicate is the follower half of log shipping.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	capBody(w, r)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, bodyErrCode(err), fmt.Errorf("reading batch: %w", err))
		return
	}
	b, err := wal.DecodeBatch(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(s.replFrom) > 0 && !slices.Contains(s.replFrom, b.Source) {
		httpError(w, http.StatusForbidden, fmt.Errorf("source %q not in replicate-from allowlist", b.Source))
		return
	}
	if b.SessionID == "" || b.PatientID == "" {
		httpError(w, http.StatusBadRequest, errors.New("batch missing session or patient ID"))
		return
	}

	s.lock()
	defer s.mu.Unlock()
	if _, live := s.sessions[b.SessionID]; live {
		// We are the primary for this session (promoted); the sender is
		// a deposed primary. Fence it.
		httpError(w, http.StatusPreconditionFailed,
			fmt.Errorf("session %q is live here; shipping epoch %d is stale", b.SessionID, b.Epoch))
		return
	}
	rs, ok := s.replicas[b.SessionID]
	if !ok {
		rs = &replicaState{patientID: b.PatientID, source: b.Source}
		s.replicas[b.SessionID] = rs
	}
	apply, err := rs.cursor.Accept(b)
	switch {
	case errors.Is(err, wal.ErrStaleEpoch):
		httpError(w, http.StatusPreconditionFailed, err)
		return
	case errors.Is(err, wal.ErrGap):
		httpError(w, http.StatusConflict, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rs.source = b.Source
	for _, rec := range apply {
		if err := s.applyReplicated(rs, rec); err != nil {
			// The cursor has advanced past this record; a local apply
			// failure (e.g. non-advancing vertices) means divergence we
			// cannot hide. Force the primary to resend a snapshot.
			rs.cursor = wal.Cursor{Epoch: rs.cursor.Epoch}
			httpError(w, http.StatusConflict, fmt.Errorf("applying replicated record: %w", err))
			return
		}
	}
	s.met.replApplied.Add(len(apply))
	// Evaluate standing queries against the replicated appends so a
	// promoted follower already holds the same buffered events (same
	// sequence numbers) the primary derived.
	s.subs.Drain(r.Context(), s.db)
	writeJSON(w, http.StatusOK, ReplicateResponse{
		NextSeq: rs.cursor.Next,
		Epoch:   rs.cursor.Epoch,
		Applied: len(apply),
	})
}

// applyReplicated applies one shipped record to the follower's store.
// Mutations flow through the store hook, so a durable follower
// journals them into its own WAL exactly like local writes.
func (s *Server) applyReplicated(rs *replicaState, rec wal.Record) error {
	switch rec.Type {
	case wal.TypePatientUpsert:
		// Existing patients keep their info: rewriting it in place would
		// race matcher reads, and replicated upserts re-ship the same
		// record on catch-up anyway.
		if s.db.Patient(rec.Patient.ID) != nil {
			return nil
		}
		_, err := s.db.AddPatient(rec.Patient)
		return err
	case wal.TypeStreamOpen:
		_, err := s.replicaStream(rs, rec.PatientID, rec.SessionID)
		return err
	case wal.TypeVertexAppend:
		st, err := s.replicaStream(rs, rec.PatientID, rec.SessionID)
		if err != nil {
			return err
		}
		return st.Append(rec.Vertices...)
	case wal.TypeSessionAnchor:
		rs.samples = rec.Samples
		rs.lastT = rec.AnchorT
		rs.lastPos = append(rs.lastPos[:0], rec.AnchorPos...)
		return nil
	case wal.TypeSessionClose:
		delete(s.replicas, rec.SessionID)
		return nil
	case wal.TypeReplicaSnapshot:
		if rec.Patient.ID == rec.PatientID && rec.PatientID != "" && s.db.Patient(rec.PatientID) == nil {
			if _, err := s.db.AddPatient(rec.Patient); err != nil {
				return err
			}
		}
		st, err := s.replicaStream(rs, rec.PatientID, rec.SessionID)
		if err != nil {
			return err
		}
		// Append only the vertices past our current tail: a snapshot
		// re-ships the whole stream, and Append rejects regressions.
		if vs := wal.TailAfter(st, rec.Vertices); len(vs) > 0 {
			if err := st.Append(vs...); err != nil {
				return err
			}
		}
		rs.samples = rec.Samples
		rs.lastT = rec.AnchorT
		rs.lastPos = append(rs.lastPos[:0], rec.AnchorPos...)
		return nil
	case wal.TypeSubUpsert:
		if rec.Sub == nil {
			return errors.New("replicated sub-upsert without state")
		}
		// A subscription spanning several replicated sessions arrives on
		// every link; apply only the newest copy (NextSeq is monotone) so
		// a stale duplicate cannot rewind the follower's event stream.
		if cur, ok := s.subs.State(rec.Sub.ID); ok && cur.NextSeq > rec.Sub.NextSeq {
			return nil
		}
		st := *rec.Sub
		if _, err := s.subs.Register(&st, nil); err != nil {
			return fmt.Errorf("arming replicated subscription %q: %w", st.ID, err)
		}
		s.walAppend(wal.Record{Type: wal.TypeSubUpsert, Sub: &st})
		return nil
	case wal.TypeSubDelete:
		if s.subs.Delete(rec.SubID) {
			s.walAppend(wal.Record{Type: wal.TypeSubDelete, SubID: rec.SubID})
		}
		return nil
	case wal.TypeSubAck:
		if s.subs.Ack(rec.SubID, rec.SubAck) {
			s.walAppend(wal.Record{Type: wal.TypeSubAck, SubID: rec.SubID, SubAck: rec.SubAck})
		}
		return nil
	default:
		// Unknown/irrelevant record types (e.g. a promote marker) are
		// ignored rather than rejected, for forward compatibility.
		return nil
	}
}

// replicaStream returns (creating if needed) the follower-side stream
// for a replicated session. A created stream is immediately journaled
// as closed, so a follower restart recovers the data as history
// instead of resurrecting the session as a live primary.
func (s *Server) replicaStream(rs *replicaState, patientID, sessionID string) (*store.Stream, error) {
	if rs.stream != nil {
		return rs.stream, nil
	}
	p := s.db.Patient(patientID)
	if p == nil {
		var err error
		p, err = s.db.AddPatient(store.PatientInfo{ID: patientID})
		if err != nil {
			return nil, err
		}
	}
	st := p.StreamBySession(sessionID)
	if st == nil {
		st = p.AddStream(sessionID)
		s.walAppend(wal.Record{Type: wal.TypeSessionClose, SessionID: sessionID})
	}
	rs.stream = st
	return st, nil
}

// PromoteRequest turns a replica into the live primary for a session.
// Replicate lists the new primary's own replica targets (the surviving
// members of the placement); they are brought current via snapshot.
type PromoteRequest struct {
	Replicate []string `json:"replicate,omitempty"`
}

// PromoteResponse reports the promoted session.
type PromoteResponse struct {
	PatientID string `json:"patientId"`
	SessionID string `json:"sessionId"`
	Epoch     uint64 `json:"epoch"`
	Vertices  int    `json:"vertices"`
	Samples   int    `json:"totalSamples"`
}

// handlePromote fails a replicated session over to this node: the
// replica's stream becomes the live session through resumeSession —
// the crash-recovery path — under a bumped epoch that fences the
// deposed primary.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	capBody(w, r)
	var req PromoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, bodyErrCode(err), fmt.Errorf("decoding promote request: %w", err))
		return
	}

	s.lock()
	defer s.mu.Unlock()
	if sess, live := s.sessions[sid]; live {
		// Already primary here — promotion is idempotent so a gateway
		// retry after a dropped response converges.
		epoch := uint64(0)
		if sess.repl != nil {
			epoch = sess.repl.epoch
		}
		writeJSON(w, http.StatusOK, PromoteResponse{
			PatientID: sess.patientID, SessionID: sid, Epoch: epoch,
			Vertices: sess.stream.Len(), Samples: sess.samples,
		})
		return
	}
	rs, ok := s.replicas[sid]
	if !ok || rs.stream == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no replica state for session %q", sid))
		return
	}
	sess, err := s.resumeSession(wal.SessionState{
		PatientID: rs.patientID, SessionID: sid,
		Samples: rs.samples, LastT: rs.lastT, LastPos: rs.lastPos,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("resuming replica: %w", err))
		return
	}
	epoch := rs.cursor.Epoch + 1
	// Journal (and flush) the promotion before going live: a 200 must
	// mean a restart resumes this session as primary.
	if err := s.journalSync(r.Context(), wal.Record{
		Type:      wal.TypeReplicaPromote,
		PatientID: sess.patientID,
		SessionID: sid,
		Samples:   uint64(sess.samples),
		AnchorT:   sess.lastT,
		AnchorPos: sess.lastPos,
		Epoch:     epoch,
	}); err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("flushing promotion: %w", err))
		return
	}
	delete(s.replicas, sid)
	if len(req.Replicate) > 0 {
		sess.repl = newReplicator(sess.patientID, sid, s.advertise, epoch, req.Replicate, true)
		s.track(nil, sess.repl)
	}
	s.sessions[sid] = sess
	s.met.sessionsOpen.Set(int64(len(s.sessions)))
	s.met.replPromotions.Inc()
	s.log.Info("session promoted to primary",
		slog.String("patientId", sess.patientID),
		slog.String("sessionId", sid),
		slog.Uint64("epoch", epoch),
		slog.Int("vertices", sess.stream.Len()),
		slog.Int("replicas", len(req.Replicate)))
	writeJSON(w, http.StatusOK, PromoteResponse{
		PatientID: sess.patientID,
		SessionID: sid,
		Epoch:     epoch,
		Vertices:  sess.stream.Len(),
		Samples:   sess.samples,
	})
}

// track moves s.shipping from a session's replicator from to its
// replicator to; either may be nil. The caller holds s.mu.
func (s *Server) track(from, to *replicator) {
	s.shippingMu.Lock()
	defer s.shippingMu.Unlock()
	delete(s.shipping, from)
	if to != nil {
		s.shipping[to] = struct{}{}
	}
}

// maxReplLag is the worst unshipped backlog over every session this
// node ships and every link of it: healthz's maxLagRecords and the
// stsmatch_repl_lag_records gauge. It takes shippingMu and each
// replicator's own lock, never s.mu, so a scrape does not wait out a
// snapshot.
func (s *Server) maxReplLag() int {
	s.shippingMu.Lock()
	defer s.shippingMu.Unlock()
	worst := 0
	for r := range s.shipping {
		worst = max(worst, r.lag())
	}
	return worst
}

// ReplSessionHealth details one replicated session's shipping state in
// healthz: the per-link assigned/acked sequence numbers.
type ReplSessionHealth struct {
	SessionID string           `json:"sessionId"`
	PatientID string           `json:"patientId"`
	Epoch     uint64           `json:"epoch"`
	Links     []ReplLinkStatus `json:"links"`
}

// ReplicationHealth is the replication section of healthz.
type ReplicationHealth struct {
	PrimarySessions int    `json:"primarySessions"` // sessions this node ships
	ReplicaSessions int    `json:"replicaSessions"` // sessions this node follows
	MaxLagRecords   int    `json:"maxLagRecords"`   // worst unshipped backlog
	LastShipError   string `json:"lastShipError,omitempty"`
	// Sessions details each primary session's links, sorted by session
	// ID, so a single healthz poll shows exactly which replica of which
	// session is behind (not just the worst aggregate).
	Sessions []ReplSessionHealth `json:"sessions,omitempty"`
}

// replicationHealth summarizes replication for /v1/healthz. Returns
// nil when this node neither ships nor follows anything.
func (s *Server) replicationHealth() *ReplicationHealth {
	s.lock()
	defer s.mu.Unlock()
	h := &ReplicationHealth{ReplicaSessions: len(s.replicas), MaxLagRecords: s.maxReplLag()}
	for sid, sess := range s.sessions {
		if sess.repl == nil {
			continue
		}
		h.PrimarySessions++
		detail := ReplSessionHealth{
			SessionID: sid,
			PatientID: sess.patientID,
			Epoch:     sess.repl.epoch,
			Links:     sess.repl.linkStatuses(),
		}
		for _, link := range detail.Links {
			if link.LastError != "" {
				h.LastShipError = link.LastError
			}
		}
		h.Sessions = append(h.Sessions, detail)
	}
	sort.Slice(h.Sessions, func(a, b int) bool { return h.Sessions[a].SessionID < h.Sessions[b].SessionID })
	if h.PrimarySessions == 0 && h.ReplicaSessions == 0 {
		return nil
	}
	return h
}
