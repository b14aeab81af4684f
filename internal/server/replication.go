// Replication: a primary ships each replicated session's WAL records
// to follower shards over POST /v1/replicate, synchronously with the
// ingest ack, so killing the primary loses no acknowledged vertex as
// long as one replica survives. A follower is recovery over a shipped
// log: it applies each record with wal.Replay, the interpreter crash
// recovery uses, and journals it as applied, so its state and its
// restart are the same function of the same records. It runs no
// segmenter; POST /v1/sessions/{sid}/promote turns a caught-up replica
// into the live primary using the same resume path crash recovery
// uses, at a bumped epoch: of two nodes that claim a session, the one
// at the lower epoch yields.
//
// Per-link sequencing: every replica link numbers its shipped records
// independently (dense, 1-based, carried in the record's LSN slot), so
// a follower's wal.Cursor detects drops and reorders without any
// cross-replica coordination. A link's first shipment, a gap (HTTP 409)
// and an overflowing pending queue all ship a catch-up: the session as
// the records that built it, led by a stream-open that re-anchors the
// follower's cursor. A shipment at an epoch no higher than the one
// the receiver knows is answered 412 with that epoch; when that epoch is
// above the shipper's, the shipper yields (yield). A shipment that would
// not extend the receiver's copy by the one rule (wal.Extend) is
// answered 422 and the shipper drops the link.

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
// collapses to catch-up instead of buffering without bound.
const maxPendingRecords = 1024

// replicator ships one session's records to its followers. Every
// session a node owns has one, built where the node became its owner:
// create (epoch 1), promote (the replica's epoch + 1) and recovery (the
// journaled epoch and followers). With no links it ships nothing.
type replicator struct {
	mu        sync.Mutex
	patientID string
	sessionID string
	source    string   // primary's advertised base URL
	epoch     uint64   // fixed for the replicator's life
	followers []string // what is journaled for recovery to re-link
	links     []*replicaLink
}

// staleEpoch is the 412 answer to a shipment below the epoch the
// receiver knows: that epoch, the owner it knows (itself, or the source
// it follows) and, from a live owner to a catch-up, how many leading
// vertices of the catch-up's stream its own shares (wal.Extend).
type staleEpoch struct {
	Err    string `json:"error"`
	Epoch  uint64 `json:"epoch"`
	Owner  string `json:"owner,omitempty"`
	Shared int    `json:"shared,omitempty"`
}

func (e *staleEpoch) Error() string { return e.Err }

// replicaLink is one primary→replica shipping lane.
type replicaLink struct {
	target      string
	nextSeq     uint64       // next sequence number to assign (1-based)
	pending     []wal.Record // enqueued, not yet acknowledged by the replica
	needCatchup bool         // next shipment must be a catch-up
	lastErr     string

	// handoff marks the link a migration added for its target (see
	// migration.go): its traffic is counted as migration bytes, and a
	// rolled-back hand-off removes it again.
	handoff bool

	// shipMu serializes shipments on this link so concurrent ingest
	// flushes cannot interleave batches. Held across the HTTP call;
	// never acquired while holding replicator.mu.
	shipMu sync.Mutex
}

// newReplicator builds the shipping state of a session this node owns
// at epoch, with a link to each follower.
func newReplicator(patientID, sessionID, source string, epoch uint64, followers []string) *replicator {
	r := &replicator{patientID: patientID, sessionID: sessionID, source: source, epoch: epoch, followers: followers}
	for _, f := range followers {
		r.follow(f, false)
	}
	return r
}

// follow returns the link shipping to target, adding one when none does
// (handoff marks a migration target's). It is the one place a link is
// built, and every link starts with a catch-up: its numbering starts at
// 1, and a follower's cursor drops sequence numbers at or below its own
// within an epoch as duplicates, so a rebuilt link's (a restarted
// primary's) incremental records would be acked and discarded.
func (r *replicator) follow(target string, handoff bool) *replicaLink {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, link := range r.links {
		if link.target == target {
			return link
		}
	}
	link := &replicaLink{target: target, nextSeq: 1, needCatchup: true, handoff: handoff}
	r.links = append(r.links, link)
	return link
}

// idle reports that nothing follows the session, so there is nothing
// to stage.
func (r *replicator) idle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.links) == 0
}

// enqueue stages records on every link, assigning per-link sequence
// numbers. Callers hold s.mu (the session lock), which is what orders
// enqueues; records must be staged in apply order.
func (r *replicator) enqueue(recs ...wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, link := range r.links {
		if link.needCatchup {
			// The backlog is superseded by the catch-up the next flush
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
			link.needCatchup = true
		}
	}
}

// unlink removes the links drop selects.
func (r *replicator) unlink(drop func(*replicaLink) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.links = slices.DeleteFunc(r.links, drop)
}

// ReplLinkStatus is one primary→replica shipping lane's sequence
// state, exposed in /v1/shard/stats so operators can see which replica
// is behind.
type ReplLinkStatus struct {
	Target string `json:"target"`
	// ShippedSeq is the highest sequence number assigned on this link
	// (records staged for shipment); AckedSeq is the highest the
	// replica has contiguously acknowledged. Their difference is the
	// link's in-flight backlog in records.
	ShippedSeq uint64 `json:"shippedSeq"`
	AckedSeq   uint64 `json:"ackedSeq"`
	// SnapshotPending marks a link collapsed to catch-up: the next
	// shipment re-anchors the follower with the session's records.
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
			SnapshotPending: link.needCatchup,
			LastError:       link.lastErr,
		})
	}
	return out
}

// lag returns the largest unacknowledged backlog across links. A link
// awaiting catch-up counts as one pending shipment.
func (r *replicator) lag() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	most := 0
	for _, link := range r.links {
		n := len(link.pending)
		if link.needCatchup {
			n++
		}
		if n > most {
			most = n
		}
	}
	return most
}

// replFlush synchronously ships every link's backlog and returns one
// error string per link that could not be brought current. Callers must
// NOT hold s.mu: a catch-up re-acquires it to read session state, and a
// yield takes it.
// The context carries the request's trace and request ID across the
// shipments, so a synchronous replication stall shows up as repl.ship
// spans inside the ingest trace.
func (s *Server) replFlush(ctx context.Context, r *replicator) []string {
	r.mu.Lock()
	links := append([]*replicaLink(nil), r.links...)
	r.mu.Unlock()
	if len(links) == 0 {
		return nil // nothing follows: no fan-out to allocate
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

// flushLink brings one link current, then yields if the follower
// answered with a higher epoch (yieldTo). Every flush that fails counts.
func (s *Server) flushLink(ctx context.Context, r *replicator, link *replicaLink) error {
	err := s.shipLink(ctx, r, link)
	if err != nil {
		s.met.replShipErrors.Inc()
	}
	s.yieldTo(ctx, r, link, err)
	return err
}

// yieldTo is the shipper's half of the one comparison. A link's 412
// naming a higher epoch hands the session over when the link is that
// epoch's live owner and its stream shares every vertex this node
// acknowledged (session.acked; a write that reached every follower is
// in the owner's copy), as its answer to this node's catch-up counts
// them; otherwise this node is superseded. A write flushed behind
// either meets the same answer, or the door's second ask of the gate,
// and is not acknowledged.
func (s *Server) yieldTo(ctx context.Context, r *replicator, link *replicaLink, err error) {
	var se *staleEpoch
	if !errors.As(err, &se) || se.Epoch <= r.epoch {
		return
	}
	var told *replicator
	s.lock()
	if sess, ok := s.sessions[r.sessionID]; ok && sess.repl == r { // else handed over already, or closed
		told, _, _ = s.handOverLocked(ctx, sess, se.Owner, se.Epoch, se.Owner == link.target && se.Shared >= sess.acked)
	}
	s.mu.Unlock()
	s.flushHandOver(ctx, told)
}

// shipLink ships one link's pending backlog, or a catch-up when the
// link needs one.
func (s *Server) shipLink(ctx context.Context, r *replicator, link *replicaLink) error {
	link.shipMu.Lock()
	defer link.shipMu.Unlock()

	for attempt := 0; attempt < 2; attempt++ {
		var batch wal.Batch
		r.mu.Lock()
		catchup := link.needCatchup
		if !catchup {
			if len(link.pending) == 0 {
				r.mu.Unlock()
				return nil
			}
			batch = r.batch(append([]wal.Record(nil), link.pending...))
		}
		r.mu.Unlock()
		if catchup {
			var ok bool
			batch, ok = s.catchupBatch(r, link)
			if !ok {
				return errors.New("session gone before catch-up")
			}
			s.met.replSnapshots.Inc()
		}

		status, sent, body, err := s.shipBatch(ctx, link.target, batch)
		var se staleEpoch
		if err == nil && status == http.StatusPreconditionFailed && json.Unmarshal(body, &se) == nil {
			err = &se
		}
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
			retry := len(link.pending) > 0 || link.needCatchup
			r.mu.Unlock()
			s.met.replShipped.Add(len(batch.Records))
			if link.handoff {
				s.met.migrationBytes.Add(sent)
			}
			if !retry {
				return nil
			}
			continue // ship the records that arrived mid-flight
		case err == nil && status == http.StatusConflict, attempt == 0 && !catchup && se.Epoch > r.epoch:
			// A sequence gap on the replica, or an owner at a higher epoch:
			// catch it up, and the owner's answer tells how far the
			// streams agree (yieldTo).
			r.mu.Lock()
			link.needCatchup = true
			link.pending = nil
			r.mu.Unlock()
			continue
		default:
			if err == nil {
				err = fmt.Errorf("replica answered %d", status)
			}
			r.mu.Lock()
			if catchup {
				link.needCatchup = true // the catch-up never landed
			}
			link.lastErr = err.Error()
			r.mu.Unlock()
			if status == http.StatusUnprocessableEntity { // no catch-up extends the follower's copy
				r.unlink(func(l *replicaLink) bool { return l == link })
			}
			return err
		}
	}
	return errors.New("replica still behind after catch-up")
}

// catchupBatch builds a catch-up shipment: the session as the records
// that built it — stream-open, patient-upsert, one vertex-append holding
// the whole stream (none while it is empty) and the anchor — then the
// sub-upserts of the subscriptions in scope, so a fresh (or lapsed)
// follower arms them before any incremental append and a later promote
// needs no other protocol. It holds s.mu (then r.mu) so no enqueue can
// slip a record between the state read and the backlog reset: every
// staged-then-discarded record's effect is inside the catch-up.
func (s *Server) catchupBatch(r *replicator, link *replicaLink) (wal.Batch, bool) {
	s.lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[r.sessionID]
	if !ok {
		return wal.Batch{}, false
	}
	recs := []wal.Record{
		{Type: wal.TypeStreamOpen, PatientID: r.patientID, SessionID: r.sessionID},
		{Type: wal.TypePatientUpsert, Patient: s.db.Patient(r.patientID).Info},
	}
	if view := sess.stream.ScanView(""); view.Len() > 0 { // its copy for the encoder goes with the batch
		recs = append(recs, wal.Record{Type: wal.TypeVertexAppend, PatientID: r.patientID, SessionID: r.sessionID,
			Vertices: view.Window(0, view.Len())})
	}
	recs = append(recs, sess.anchorRecord())
	for _, st := range s.subs.StatesInScope(r.patientID, r.sessionID) {
		recs = append(recs, wal.Record{Type: wal.TypeSubUpsert, Sub: &st})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range recs {
		recs[i].LSN = link.nextSeq
		link.nextSeq++
	}
	link.pending = nil
	link.needCatchup = false
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
// count, catch-up or incremental, status), and the trace context plus
// request ID propagate to the follower, so one ingest's trace spans
// primary and replicas alike.
func (s *Server) shipBatch(ctx context.Context, target string, b wal.Batch) (status, sent int, body []byte, err error) {
	sctx, sp := obs.StartSpan(ctx, "repl.ship")
	defer sp.Finish()
	sp.Annotate("target", target)
	sp.Annotate("sessionId", b.SessionID)
	sp.Annotate("records", len(b.Records))
	if b.Records[0].Type == wal.TypeStreamOpen {
		sp.Annotate("catchup", true)
	}
	payload := wal.EncodeBatch(b)
	status, body, err = s.callPeer(sctx, target+"/v1/replicate", "application/octet-stream", payload)
	if err != nil {
		sp.Annotate("error", err.Error())
		return 0, 0, nil, err
	}
	sp.Annotate("status", status)
	return status, len(payload), body, nil
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

// ReplicateResponse acknowledges an applied batch.
type ReplicateResponse struct {
	NextSeq uint64 `json:"nextSeq"`
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

// handleReplicate is the follower half of log shipping: recovery over a
// shipped log. The records the cursor of the session's entry in s.replay
// accepts are applied with s.replay and journaled as applied — verbatim,
// but a vertex-append holding only the vertices it added — then their
// subscription history is applied as recovery applies it.
// A batch for a session live here is the one comparison: 412 at an
// epoch no higher than this node's, saying how far a catch-up's stream
// agrees with its own; at a higher one this node yields to the source
// and applies the batch as its follower. A catch-up that would not
// extend this node's copy (wal.Extend) is refused whole, an append from
// the first vertex the copy cannot take: 422.
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
	for _, rec := range b.Records {
		// Ownership is decided by this node's own records alone.
		if rec.Type == wal.TypeReplicaPromote || rec.Type == wal.TypeSessionMigrate {
			httpError(w, http.StatusBadRequest, fmt.Errorf("a link never ships a %s record", rec.Type))
			return
		}
	}

	var told *replicator
	s.lock()
	defer func() {
		s.mu.Unlock()
		s.flushHandOver(r.Context(), told)
	}()
	sess, live := s.sessions[b.SessionID]
	catchup, shared, diverged := wal.Extend(s.held(b.PatientID, b.SessionID), b.Records)
	if live && b.Epoch <= sess.repl.epoch {
		writeJSON(w, http.StatusPreconditionFailed, staleEpoch{Epoch: sess.repl.epoch, Owner: s.advertise, Shared: shared,
			Err: fmt.Sprintf("session %q is live here at epoch %d; shipping epoch %d is stale", b.SessionID, sess.repl.epoch, b.Epoch)})
		return
	}
	if live {
		// A catch-up that does not extend this node's copy supersedes it.
		var code int
		if told, code, err = s.handOverLocked(r.Context(), sess, b.Source, b.Epoch, catchup && diverged == nil); diverged != nil {
			s.met.replDiverged.Inc()
			code, err = http.StatusUnprocessableEntity, fmt.Errorf("session %q: %w", b.SessionID, diverged)
		}
		if err != nil {
			httpError(w, code, err)
			return
		}
	}
	f := s.replay.Follow(b.PatientID, b.SessionID)
	apply, err := f.Cursor.Accept(b)
	switch {
	case errors.Is(err, wal.ErrStaleEpoch):
		writeJSON(w, http.StatusPreconditionFailed, staleEpoch{Err: err.Error(), Epoch: f.Cursor.Epoch, Owner: f.Source})
		return
	case errors.Is(err, wal.ErrGap):
		httpError(w, http.StatusConflict, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	applyErr := diverged // a diverged catch-up applies nothing
	for _, rec := range apply {
		if applyErr != nil {
			break
		}
		var applied wal.Record
		applied, applyErr = s.replay.Apply(rec)
		// What landed is journaled, a refused vertex-append's prefix too.
		// A close ends the entry, and a tombstone's claim with it.
		if len(applied.Vertices) > 0 || applyErr == nil && applied.Type != wal.TypeVertexAppend {
			s.walAppendCtx(r.Context(), applied)
		}
	}
	s.applySubOps(r.Context(), s.replay.TakeSubOps())
	// Appends the interpreter recorded no boundary for (it knew of no
	// live subscription) are evaluated here, so a promoted follower
	// holds the same buffered events (same sequence numbers) the
	// primary derived.
	s.subs.Drain(r.Context(), s.db)
	switch {
	case errors.Is(applyErr, wal.ErrDiverged):
		// No catch-up repairs it: the copy stays, follows no more
		// (neither listed nor promotable) and stays fenced at the batch's
		// epoch, until a catch-up it is a prefix of.
		f.Source, f.Diverged = b.Source, true
		s.met.replDiverged.Inc()
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("session %q: %w", b.SessionID, applyErr))
		return
	case applyErr != nil:
		// The cursor has advanced past this record: force a catch-up.
		f.Cursor = wal.Cursor{Epoch: f.Cursor.Epoch}
		httpError(w, http.StatusConflict, fmt.Errorf("applying replicated record: %w", applyErr))
		return
	}
	f.Source, f.Diverged = b.Source, false
	s.met.replApplied.Add(len(apply))
	writeJSON(w, http.StatusOK, ReplicateResponse{
		NextSeq: f.Cursor.Next,
		Epoch:   f.Cursor.Epoch,
		Applied: len(apply),
	})
}

// held is this node's copy of a session's stream, empty when there is
// none. Callers hold s.mu.
func (s *Server) held(patientID, sessionID string) store.ScanView {
	if p := s.db.Patient(patientID); p != nil {
		if st := p.StreamBySession(sessionID); st != nil {
			return st.ScanView("")
		}
	}
	return store.ScanView{}
}

// PromoteRequest turns a replica into the live primary for a session.
// Replicate lists the new primary's own replica targets (the surviving
// members of the placement); they are brought current via catch-up.
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
// the crash-recovery path — under a bumped epoch, which the previous
// owner yields to when the two meet.
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
	sess, live := s.sessions[sid]
	if !live {
		ss, f, ok := s.replay.Session(sid)
		if !ok || !f.Following() {
			httpError(w, http.StatusNotFound, fmt.Errorf("no replica state for session %q", sid))
			return
		}
		ss.Epoch, ss.Followers = f.Cursor.Epoch+1, req.Replicate
		var err error
		sess, err = s.resumeSession(ss)
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("resuming replica: %w", err))
			return
		}
		// Journal (and flush) the promotion before going live: a 200 must
		// mean a restart resumes this session as primary, shipping to the
		// same followers at the same epoch. A session that migrated away
		// and back sheds its tombstone.
		if err := s.decide(r.Context(), sess.ownerRecord()); err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("flushing promotion: %w", err))
			return
		}
		s.open(sess)
		s.met.replPromotions.Inc()
		s.log.Info("session promoted to primary",
			slog.String("patientId", sess.patientID),
			slog.String("sessionId", sid),
			slog.Uint64("epoch", sess.repl.epoch),
			slog.Int("vertices", sess.stream.Len()),
			slog.Int("replicas", len(req.Replicate)))
	}
	// Already primary here, the answer is the same: promotion is
	// idempotent so a retry after a dropped response converges.
	writeJSON(w, http.StatusOK, PromoteResponse{
		PatientID: sess.patientID,
		SessionID: sid,
		Epoch:     sess.repl.epoch,
		Vertices:  sess.stream.Len(),
		Samples:   sess.samples,
	})
}

// open makes sess live on this node, its replicator among those the
// lag gauge reads. Callers hold s.mu.
func (s *Server) open(sess *session) {
	s.sessions[sess.sessionID] = sess
	s.shippingMu.Lock()
	s.shipping[sess.repl] = struct{}{}
	s.shippingMu.Unlock()
	s.met.sessionsOpen.Set(int64(len(s.sessions)))
}

// retire ends sess on this node: closed, or migrated away. Callers hold
// s.mu.
func (s *Server) retire(sess *session) {
	delete(s.sessions, sess.sessionID)
	s.shippingMu.Lock()
	delete(s.shipping, sess.repl)
	s.shippingMu.Unlock()
	s.met.sessionsOpen.Set(int64(len(s.sessions)))
}

// maxReplLag is the worst unshipped backlog over every session this
// node ships and every link of it: the stsmatch_repl_lag_records
// gauge. It takes shippingMu and each replicator's own lock, never
// s.mu, so a scrape does not wait out a snapshot.
func (s *Server) maxReplLag() int {
	s.shippingMu.Lock()
	defer s.shippingMu.Unlock()
	worst := 0
	for r := range s.shipping {
		worst = max(worst, r.lag())
	}
	return worst
}
