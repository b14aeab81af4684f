// Live session migration (PR 10): POST /v1/sessions/{sid}/migrate
// moves one open session to another shard with zero acked-vertex loss,
// generalizing the failover machinery into a planned handover. The
// source adds the target as one more follower link on the session's
// replicator — snapshot-first, like a freshly promoted primary's links —
// so every ingest ack, subscription operation and close reaches it
// like any replica; it then fences local writes, journals a durable
// prepare marker, drains the link, promotes the target through the
// normal epoch-fenced promote path, and finally journals a commit
// tombstone: the session is closed here and stale routes get 410 Gone
// plus the target URL as a redirect hint.
//
// Crash safety is two-sided. The prepare record is fsynced before the
// promote call, so a source restart resumes the session *fenced* — no
// write can land in the ambiguous window between promote and commit —
// and the whole handler is idempotent: re-driving it on a prepared (or
// already-committed) session converges without re-shipping acknowledged
// data it can avoid. A target that is primary already (a previous
// attempt's promote landed but the response was lost) fences the
// catch-up shipment with 412; the commit then completes after verifying
// the target holds at least everything this node acked. DESIGN §11
// tabulates the transitions.

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

// MigrateResponse reports a completed (or previously completed)
// migration.
type MigrateResponse struct {
	PatientID string `json:"patientId"`
	SessionID string `json:"sessionId"`
	Target    string `json:"target"`
	// Epoch is the target's fencing epoch after promotion.
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	// AlreadyMigrated marks an idempotent re-drive: the session had a
	// committed tombstone before this request arrived.
	AlreadyMigrated bool `json:"alreadyMigrated,omitempty"`
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

// migratedLocked returns the already-migrated answer for a session
// with a committed tombstone. Callers hold s.mu.
func (s *Server) migratedLocked(sid string) (MigrateResponse, bool) {
	m, ok := s.migrations[sid]
	if !ok || m.Phase != wal.MigrateCommit {
		return MigrateResponse{}, false
	}
	return MigrateResponse{
		PatientID: m.PatientID, SessionID: sid, Target: m.Target,
		Epoch: m.Epoch, AlreadyMigrated: true,
	}, true
}

// goneOr404 is the shared not-found tail of the session-scoped
// handlers. A migrated-away session answers 410 Gone with the new
// owner in both the Location header and the JSON body — the redirect
// hint the gateway uses to repair its placement table; anything else
// stays a plain 404.
func (s *Server) goneOr404(w http.ResponseWriter, sid string) {
	s.lock()
	m, gone := s.migratedLocked(sid)
	s.mu.Unlock()
	if !gone {
		httpError(w, http.StatusNotFound, fmt.Errorf("no open session %q", sid))
		return
	}
	w.Header().Set("Location", m.Target)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGone)
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck
		"error":    fmt.Sprintf("session %q migrated away", sid),
		"location": m.Target,
	})
}

// handleMigrate answers POST /v1/sessions/{sid}/migrate.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	s.capBody(w, r)
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
		sp.Annotate("alreadyMigrated", resp.AlreadyMigrated)
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
// fsync prepare → flush → promote → fsync commit. A failure before the
// target is promoted rolls back at the one deferred site below and
// leaves the session serving here; a failure after it keeps the
// session fenced and prepared for the re-drive, because unfencing
// beside a promoted target could diverge — unless it already has.
func (s *Server) migrate(ctx context.Context, sid, target string, replicate []string) (resp MigrateResponse, code int, err error) {
	// Add link: from here on every path that stages or flushes records
	// for the session's followers reaches the target too.
	s.lock()
	if done, ok := s.migratedLocked(sid); ok {
		s.mu.Unlock()
		return done, http.StatusOK, nil
	}
	sess, ok := s.sessions[sid]
	if !ok {
		s.mu.Unlock()
		return resp, http.StatusNotFound, fmt.Errorf("no open session %q", sid)
	}
	if sess.repl == nil {
		sess.repl = newReplicator(sess.patientID, sid, s.advertise, 1, nil, false)
	}
	repl := sess.repl
	link := repl.handoffLink(target)
	s.met.migrationsInFlight.Inc()
	s.mu.Unlock()
	defer s.met.migrationsInFlight.Dec()

	rollback := true
	defer func() {
		if err != nil && rollback && !s.abortMigration(ctx, sid, sess, err) {
			code = http.StatusNotFound // closed meanwhile, whatever step noticed
		}
	}()

	s.migrateHook("catchup")

	// Flush: the snapshot ships before anything is fenced; each ingest
	// ack keeps the target current from then on. errFenced, here and in
	// the drain, means the target is primary already (a lost promote
	// response) and the link is as current as it will ever be: the
	// promote below is idempotent there, and the commit's divergence
	// check has the last word.
	if ferr := s.flushLink(ctx, repl, link); ferr != nil && !errors.Is(ferr, errFenced) {
		return resp, http.StatusBadGateway, fmt.Errorf("migration catch-up failed: %s: %w", target, ferr)
	}

	// Fence new writes and journal the prepare durably BEFORE promoting,
	// so a crash in the ambiguous window resumes the session fenced
	// (re-drivable, no divergent writes).
	s.lock()
	if s.sessions[sid] != sess {
		s.mu.Unlock()
		return resp, http.StatusNotFound, fmt.Errorf("session %q closed mid-migration", sid)
	}
	sess.fenced = true
	jerr := s.journalMigrationLocked(ctx, wal.MigrationState{
		SessionID: sid, PatientID: sess.patientID, Target: target, Phase: wal.MigratePrepare,
	})
	s.mu.Unlock()
	if jerr != nil {
		return resp, http.StatusInternalServerError, fmt.Errorf("flushing migration prepare: %w", jerr)
	}

	s.migrateHook("cutover")

	// Final drain: the fence was set under s.mu, so no vertex can be
	// staged behind it; a clean flush means the target holds everything
	// this node ever acknowledged.
	if ferr := s.flushLink(ctx, repl, link); ferr != nil && !errors.Is(ferr, errFenced) {
		return resp, http.StatusBadGateway, fmt.Errorf("migration final drain failed: %s: %w", target, ferr)
	}

	presp, perr := s.promoteTarget(ctx, target, sid, replicate)
	if perr != nil {
		return resp, http.StatusBadGateway, fmt.Errorf("promoting migration target: %w", perr)
	}
	rollback = false

	s.migrateHook("tombstone")

	// Commit: durable tombstone, session closed here. The divergence
	// check guards the one unwinnable window — a past promote landed,
	// this node kept serving unfenced, and now holds vertices the
	// target lacks; dropping the session would lose acked data, so the
	// hand-off refuses, surfaces it, and keeps serving the superset.
	retire := false
	s.lock()
	defer func() {
		s.mu.Unlock()
		if retire {
			// Best effort, like a close's.
			if errs := s.replFlush(ctx, repl); len(errs) > 0 {
				s.log.Warn("migration not told to every retired follower", slog.Any("replicaErrors", errs))
			}
		}
	}()
	if s.sessions[sid] != sess {
		if done, ok := s.migratedLocked(sid); ok {
			return done, http.StatusOK, nil
		}
		return resp, http.StatusConflict, fmt.Errorf("session %q closed mid-migration", sid)
	}
	if sess.stream.Len() > presp.Vertices {
		rollback = true
		return resp, http.StatusConflict, fmt.Errorf(
			"migration diverged: source holds %d vertices, promoted target %d; refusing to drop acked data",
			sess.stream.Len(), presp.Vertices)
	}
	if jerr := s.journalMigrationLocked(ctx, wal.MigrationState{
		SessionID: sid, PatientID: sess.patientID, Target: target,
		Epoch: presp.Epoch, Phase: wal.MigrateCommit,
	}); jerr != nil {
		s.met.migrationFailures.Inc()
		return resp, http.StatusInternalServerError, fmt.Errorf("flushing migration commit: %w", jerr)
	}
	delete(s.sessions, sid)
	// Retire: the followers the new owner does not keep are told what
	// a close would tell them, so none stays a failover candidate
	// holding a stale copy.
	repl.unlink(func(l *replicaLink) bool { return l.target == target || slices.Contains(replicate, l.target) })
	s.expelMigratedSubsLocked(ctx, sess.patientID, sid, repl)
	repl.enqueue(wal.Record{Type: wal.TypeSessionClose, SessionID: sid})
	retire = true
	s.met.sessionsOpen.Set(int64(len(s.sessions)))
	s.met.migrations.Inc()
	s.log.Info("session migrated away",
		slog.String("patientId", sess.patientID),
		slog.String("sessionId", sid),
		slog.String("target", target),
		slog.Uint64("epoch", presp.Epoch),
		slog.Int("vertices", sess.stream.Len()),
		slog.String("requestId", obs.RequestIDFrom(ctx)))
	return MigrateResponse{
		PatientID: sess.patientID,
		SessionID: sid,
		Target:    target,
		Epoch:     presp.Epoch,
		Vertices:  sess.stream.Len(),
	}, http.StatusOK, nil
}

// journalMigrationLocked journals and fsyncs one migration phase
// transition and records it in the in-memory migration table. Callers
// hold s.mu. In-memory servers (no WAL) keep only the table entry.
func (s *Server) journalMigrationLocked(ctx context.Context, m wal.MigrationState) error {
	if err := s.journalSync(ctx, wal.Record{
		Type:      wal.TypeSessionMigrate,
		PatientID: m.PatientID,
		SessionID: m.SessionID,
		Target:    m.Target,
		Epoch:     m.Epoch,
		Phase:     m.Phase,
	}); err != nil {
		return err
	}
	if m.Phase == wal.MigrateAbort {
		delete(s.migrations, m.SessionID)
	} else {
		st := m
		s.migrations[m.SessionID] = &st
	}
	return nil
}

// expelMigratedSubsLocked hands in-scope subscriptions over with the
// migrated session. They reached the target over its link — inside the
// catch-up snapshot or staged behind it — so the source's copies are
// dropped: journaled as deletes (no dedicated fsync — resurrection
// after a crash only leaves an idle armed copy the list dedupe already
// tolerates), staged as deletes for the retired followers, and
// expelled from the manager, which wakes attached event streams so the
// gateway proxy re-resolves to the new primary and resumes from its
// Last-Event-ID. Session-scoped subscriptions always follow the
// session; patient-scoped ones follow only when this was the
// patient's last open session here. Callers hold s.mu, with the
// migrated session already removed from s.sessions.
func (s *Server) expelMigratedSubsLocked(ctx context.Context, pid, sid string, retired *replicator) {
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
		retired.enqueue(del)
		s.subs.Expel(st.ID)
	}
}

// abortMigration rolls a failed hand-off back so the session keeps
// serving on this node: unfence, take the link the hand-off added off
// the replicator (and the replicator off a session nothing else
// follows), and undo a journaled prepare with a durable abort record.
// It reports false when the session was closed meanwhile.
func (s *Server) abortMigration(ctx context.Context, sid string, sess *session, cause error) bool {
	s.lock()
	defer s.mu.Unlock()
	s.met.migrationFailures.Inc()
	s.log.Warn("migration aborted",
		slog.String("sessionId", sid),
		slog.Any("cause", cause))
	if s.sessions[sid] != sess {
		return false
	}
	sess.fenced = false
	if sess.repl != nil && sess.repl.unlink(func(l *replicaLink) bool { return l.handoff }) == 0 {
		sess.repl = nil
	}
	if m, ok := s.migrations[sid]; ok && m.Phase == wal.MigratePrepare {
		abort := *m
		abort.Phase = wal.MigrateAbort
		if err := s.journalMigrationLocked(ctx, abort); err != nil {
			// The abort is in memory only: a crash before the next
			// successful transition resumes the session fenced, which
			// is safe (a re-drive or a later abort converges).
			s.log.Error("flushing migration abort", slog.Any("err", err))
			delete(s.migrations, sid)
		}
	}
	return true
}

// promoteTarget asks the target to take the session over, returning
// its post-promotion state.
func (s *Server) promoteTarget(ctx context.Context, target, sid string, replicate []string) (*PromoteResponse, error) {
	body, err := json.Marshal(PromoteRequest{Replicate: replicate})
	if err != nil {
		return nil, err
	}
	status, data, err := s.callPeer(ctx, target+"/v1/sessions/"+url.PathEscape(sid)+"/promote", "application/json", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("target answered %d: %s", status, strings.TrimSpace(string(data)))
	}
	var pr PromoteResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, fmt.Errorf("decoding promote response: %w", err)
	}
	return &pr, nil
}

// migrationStates snapshots the migration table for a WAL snapshot.
// Callers hold s.mu.
func (s *Server) migrationStates() []wal.MigrationState {
	out := make([]wal.MigrationState, 0, len(s.migrations))
	for _, m := range s.migrations {
		out = append(out, *m)
	}
	return out
}
