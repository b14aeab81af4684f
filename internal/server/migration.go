// Live session migration (PR 10): POST /v1/sessions/{sid}/migrate
// moves one open session to another shard with zero acked-vertex loss.
// The source adds the target as one more catch-up-first follower link,
// so every ingest ack, subscription operation and close reaches it like
// any replica; it then fences local writes, journals a durable prepare
// marker, drains the link, promotes the target and hands the session
// over (handOverLocked). A source restart resumes a prepared session
// fenced, as does a promote whose answer was lost; the re-drive's
// shipment then meets the target's higher epoch, and the yield to it is
// the commit. DESIGN §11 tabulates the transitions.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"stsmatch/internal/obs"
	"stsmatch/internal/wal"
)

// MigrateRequest asks the source to hand a session to Target.
// Replicate lists the replica set the target should ship to once
// promoted (the gateway passes the session's new owner tail).
type MigrateRequest struct {
	Target    string   `json:"target"`
	Replicate []string `json:"replicate,omitempty"`
}

// MigrateResponse reports a completed migration.
type MigrateResponse struct {
	PatientID string `json:"patientId"`
	SessionID string `json:"sessionId"`
	Target    string `json:"target"`
	// Epoch is the target's fencing epoch after promotion.
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
}

// migrateHook runs the scripted migration-phase fault point, if a test
// installed one. Phases: "catchup" (before the first shipment),
// "cutover" (fenced and prepared, before the final drain + promote),
// "tombstone" (promote succeeded, before the commit record).
func (s *Server) migrateHook(phase string) {
	if h := s.testHookMigrate.Load(); h != nil {
		(*h)(phase)
	}
}

// SetMigrationHook installs the test-only fault point migrateHook runs
// (nil removes it); tests use it to kill nodes at scripted points inside
// a cutover. Safe while a migration is in flight.
func (s *Server) SetMigrationHook(h func(phase string)) {
	if h == nil {
		s.testHookMigrate.Store(nil)
		return
	}
	s.testHookMigrate.Store(&h)
}

// goneOr404 is the shared not-found tail of the session-scoped
// handlers. A handed-over session answers 410 Gone with the owner its
// tombstone names in the Location header and the JSON body — the hint
// the gateway repairs its placement with; anything else is a 404.
func (s *Server) goneOr404(w http.ResponseWriter, sid string) {
	s.lock()
	m, gone := s.replay.Migration(sid)
	gone = gone && m.Phase == wal.MigrateCommit
	s.mu.Unlock()
	if !gone {
		httpError(w, http.StatusNotFound, fmt.Errorf("no open session %q", sid))
		return
	}
	w.Header().Set("Location", m.Target)
	writeJSON(w, http.StatusGone, map[string]string{"error": fmt.Sprintf("session %q migrated away", sid), "location": m.Target})
}

// fenced reports that a migration cutover of sid is in flight, so no
// write is taken: s.replay holds its prepare. Callers hold s.mu.
func (s *Server) fenced(sid string) bool {
	m, ok := s.replay.Migration(sid)
	return ok && m.Phase == wal.MigratePrepare
}

// handleMigrate answers POST /v1/sessions/{sid}/migrate.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	capBody(w, r)
	var req MigrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, bodyErrCode(err), fmt.Errorf("decoding migrate request: %w", err))
		return
	}
	target := strings.TrimRight(req.Target, "/")
	if target == "" {
		httpError(w, http.StatusBadRequest, errors.New("migrate needs a target URL"))
		return
	}
	if target == s.advertise {
		httpError(w, http.StatusBadRequest, fmt.Errorf("session %q already lives on %s", sid, target))
		return
	}
	ctx, sp := obs.StartSpan(r.Context(), "migrate")
	defer sp.Finish()
	sp.Annotate("sessionId", sid)
	sp.Annotate("target", target)
	resp, code, err := s.migrate(ctx, sid, target, req.Replicate)
	switch {
	case err == nil:
		sp.Annotate("epoch", resp.Epoch)
		sp.Annotate("vertices", resp.Vertices)
		writeJSON(w, http.StatusOK, resp)
	case code == http.StatusNotFound:
		s.goneOr404(w, sid)
	default:
		httpError(w, code, err)
	}
}

// migrate hands session sid over to target: add link → flush → fence +
// fsync prepare → flush → promote → hand over. A failure before the
// promote, or the target's refusal of it, rolls back at the one
// deferred site below; any other failure keeps the session fenced and
// prepared for the re-drive, since unfencing beside a promoted target
// could diverge.
func (s *Server) migrate(ctx context.Context, sid, target string, replicate []string) (resp MigrateResponse, code int, err error) {
	// Add link: from here on every path that stages or flushes records
	// for the session's followers reaches the target too.
	s.lock()
	sess, code, err := s.gate(sid, opRides, nil)
	if err != nil {
		s.mu.Unlock()
		return resp, code, err
	}
	repl := sess.repl
	link := repl.follow(target, true)
	sess.handoff = append([]string{target}, replicate...)
	s.met.migrationsInFlight.Inc()
	s.mu.Unlock()
	defer s.met.migrationsInFlight.Dec()

	rollback := true
	defer func() {
		if err != nil && rollback && !s.abortMigration(ctx, sid, sess, err) {
			code = http.StatusNotFound // closed or handed over meanwhile, whatever step noticed
		}
	}()

	s.migrateHook("catchup")

	// Flush: the catch-up ships before anything is fenced; each ingest
	// ack keeps the target current from then on.
	if ferr := s.flushLink(ctx, repl, link); ferr != nil {
		return resp, http.StatusBadGateway, fmt.Errorf("migration catch-up failed: %s: %w", target, ferr)
	}

	// Fence new writes and journal the prepare durably BEFORE promoting,
	// so a crash in the ambiguous window resumes the session fenced. The
	// anchor staged here makes the final drain a round trip, so a target
	// lost now fails the drain, not the promote.
	s.lock()
	if _, code, err = s.gate(sid, opRides, sess); err != nil {
		s.mu.Unlock()
		return resp, code, err
	}
	repl.enqueue(sess.anchorRecord())
	jerr := s.decide(ctx, wal.Record{Type: wal.TypeSessionMigrate,
		SessionID: sid, PatientID: sess.patientID, Target: target, Phase: wal.MigratePrepare})
	s.mu.Unlock()
	if jerr != nil {
		return resp, http.StatusInternalServerError, fmt.Errorf("flushing migration prepare: %w", jerr)
	}

	s.migrateHook("cutover")

	// Final drain: the prepare was decided under s.mu, so no vertex can be
	// staged behind it; a clean flush means the target holds everything
	// this node ever acknowledged.
	if ferr := s.flushLink(ctx, repl, link); ferr != nil {
		return resp, http.StatusBadGateway, fmt.Errorf("migration final drain failed: %s: %w", target, ferr)
	}

	presp, refused, perr := s.promoteTarget(ctx, target, sid, replicate)
	if perr != nil {
		rollback = refused
		return resp, http.StatusBadGateway, fmt.Errorf("promoting migration target: %w", perr)
	}
	rollback = false

	s.migrateHook("tombstone")

	// Commit: the hand-over, unless this node yielded to the target's
	// first shipment already. A refused hand-over rolls the prepare back.
	s.lock()
	if _, code, err = s.gate(sid, opRides, sess); err != nil {
		s.mu.Unlock()
		return resp, code, err
	}
	told, code, err := s.handOverLocked(ctx, sess, target, presp.Epoch, presp.Vertices >= sess.stream.Len())
	s.mu.Unlock()
	if err != nil {
		if rollback = code == http.StatusConflict; !rollback {
			s.met.migrationFailures.Inc()
		}
		return resp, code, fmt.Errorf("migration commit: %w", err)
	}
	s.flushHandOver(ctx, told)
	s.met.migrations.Inc()
	return MigrateResponse{
		PatientID: sess.patientID,
		SessionID: sid,
		Target:    target,
		Epoch:     presp.Epoch,
		Vertices:  sess.stream.Len(),
	}, http.StatusOK, nil
}

// handOverLocked ends this node's ownership of sess to owner at epoch:
// the migration commit and both kinds of yield. Unless owner is known
// and holds every vertex this node acknowledged, the node keeps its
// copy, is superseded (supersede) and answers 409.
// Otherwise it fsyncs a commit tombstone naming owner (410 + Location
// from then on) and retires the session with its subscriptions. Only
// the migration to owner knows who follows owner (session.handoff):
// those links are unlinked, and the rest are staged the subscriptions'
// deletes and a close on told, which the caller flushes once s.mu is
// released (flushHandOver). Any other yield leaves the links as they
// are, for owner's catch-up re-anchors the followers it keeps.
func (s *Server) handOverLocked(ctx context.Context, sess *session, owner string, epoch uint64, holds bool) (told *replicator, code int, err error) {
	if owner == "" || !holds {
		s.supersede(sess, epoch)
		return nil, http.StatusConflict, fmt.Errorf(
			"session %q diverged: %q owns it at epoch %d without every vertex this node acknowledged; refusing to drop acked data",
			sess.sessionID, owner, epoch)
	}
	toTarget := s.fenced(sess.sessionID) && slices.Index(sess.handoff, owner) == 0
	if err := s.decide(ctx, wal.Record{Type: wal.TypeSessionMigrate, SessionID: sess.sessionID,
		PatientID: sess.patientID, Target: owner, Epoch: epoch, Phase: wal.MigrateCommit}); err != nil {
		s.supersede(sess, epoch)
		return nil, http.StatusInternalServerError, fmt.Errorf("flushing hand-over: %w", err)
	}
	s.retire(sess)
	if toTarget {
		told = sess.repl
		told.unlink(func(l *replicaLink) bool { return slices.Contains(sess.handoff, l.target) })
	}
	s.expelMigratedSubsLocked(ctx, sess.patientID, sess.sessionID, told)
	if told != nil {
		told.enqueue(wal.Record{Type: wal.TypeSessionClose, SessionID: sess.sessionID})
	}
	s.log.Info("session handed over", slog.String("sessionId", sess.sessionID),
		slog.String("owner", owner), slog.Uint64("epoch", epoch), slog.String("requestId", obs.RequestIDFrom(ctx)))
	return told, 0, nil
}

// supersede leaves sess to an owner at epoch that this node could not
// hand it over to: the gate takes no further write, and every link goes,
// so the node ships nothing more (the owner refuses what it would ship)
// and lists and counts no link for the session. The copy stays.
func (s *Server) supersede(sess *session, epoch uint64) {
	sess.superseded = max(sess.superseded, epoch)
	sess.repl.unlink(func(*replicaLink) bool { return true })
}

// flushHandOver ships a hand-over's staged close, if any, best effort.
func (s *Server) flushHandOver(ctx context.Context, told *replicator) {
	if told == nil {
		return
	}
	if errs := s.replFlush(ctx, told); len(errs) > 0 {
		s.log.Info("hand-over not told to every follower", slog.Any("replicaErrors", errs))
	}
}

// expelMigratedSubsLocked hands in-scope subscriptions over with the
// session: the new owner holds them, so this node's copies are
// journaled as deletes (no dedicated fsync — resurrection after a crash
// only leaves an idle armed copy the list dedupe tolerates), staged as
// deletes on told when it is given, and deleted from the manager,
// which wakes attached event streams so the gateway proxy re-resolves
// to the new primary and resumes from its Last-Event-ID. Session-scoped
// subscriptions always follow the session; patient-scoped ones only when
// it was the patient's last open session here. Callers hold s.mu, with
// the session already removed from s.sessions.
func (s *Server) expelMigratedSubsLocked(ctx context.Context, pid, sid string, told *replicator) {
	for _, st := range s.subs.States() {
		follows := st.SessionID == sid
		if !follows && st.SessionID == "" && st.PatientID == pid {
			follows = true
			for _, o := range s.sessions {
				if o.patientID == pid {
					follows = false
					break
				}
			}
		}
		if !follows {
			continue
		}
		del := wal.Record{Type: wal.TypeSubDelete, SubID: st.ID}
		s.walAppendCtx(ctx, del)
		if told != nil {
			told.enqueue(del)
		}
		s.subs.Delete(st.ID)
	}
}

// abortMigration rolls a failed hand-off back so the session keeps
// serving on this node: take the link the hand-off added off the
// replicator, and undo a prepare, the fence, with a durable abort
// record. It reports false when the session was closed or handed over.
func (s *Server) abortMigration(ctx context.Context, sid string, sess *session, cause error) bool {
	s.lock()
	defer s.mu.Unlock()
	if s.sessions[sid] != sess {
		return false
	}
	s.met.migrationFailures.Inc()
	s.log.Warn("migration aborted",
		slog.String("sessionId", sid),
		slog.Any("cause", cause))
	sess.handoff = nil
	sess.repl.unlink(func(l *replicaLink) bool { return l.handoff })
	if m, ok := s.replay.Migration(sid); ok && m.Phase == wal.MigratePrepare {
		abort := wal.Record{Type: wal.TypeSessionMigrate, SessionID: sid, PatientID: m.PatientID, Target: m.Target, Phase: wal.MigrateAbort}
		if err := s.journalSync(ctx, abort); err != nil {
			// The abort is in memory only: a crash before the next
			// successful transition resumes the session fenced, which
			// is safe (a re-drive or a later abort converges).
			s.log.Error("flushing migration abort", slog.Any("err", err))
		}
		s.replay.Apply(abort) //nolint:errcheck // an abort always applies
	}
	return true
}

// promoteTarget asks the target to take the session over, returning
// its post-promotion state. refused reports a definite answer other
// than 200: after a transport error or an unreadable answer the promote
// may have landed.
func (s *Server) promoteTarget(ctx context.Context, target, sid string, replicate []string) (pr *PromoteResponse, refused bool, err error) {
	body, err := json.Marshal(PromoteRequest{Replicate: replicate})
	if err != nil {
		return nil, true, err
	}
	status, data, err := s.callPeer(ctx, target+"/v1/sessions/"+url.PathEscape(sid)+"/promote", "application/json", body)
	switch {
	case err != nil:
		return nil, false, err
	case status != http.StatusOK:
		return nil, true, fmt.Errorf("target answered %d: %s", status, strings.TrimSpace(string(data)))
	}
	pr = new(PromoteResponse)
	if err := json.Unmarshal(data, pr); err != nil {
		return nil, false, fmt.Errorf("decoding promote response: %w", err)
	}
	return pr, false, nil
}
