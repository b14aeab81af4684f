// Standing-subscription HTTP surface: register/list/delete standing
// queries and push their match events to consumers over SSE (with a
// long-poll fallback). Registration and deletion are journaled and
// fsynced before they are acknowledged — like session close — so a
// crash never resurrects a deleted subscription or forgets an
// acknowledged one; the incremental evaluation itself happens in
// internal/subscribe, driven from the ingest path under the session
// lock (see ingestLocked and handleReplicate).

package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// subHeartbeat is the SSE keep-alive comment interval.
const subHeartbeat = 15 * time.Second

// subscriptionHealth builds the healthz subscriptions section.
func (s *Server) subscriptionHealth() *subscribe.Health {
	h := s.subs.Health()
	return &h
}

// SubscriptionRequest registers a standing query. The pattern is
// matched incrementally against arriving vertices: only windows that
// close after registration can produce events (no retro-matching).
type SubscriptionRequest struct {
	ID  string       `json:"id,omitempty"` // generated when empty
	Seq plr.Sequence `json:"seq"`
	// PatientID/SessionID scope the subscription (and classify the
	// source relation exactly like a /v1/match with the same
	// provenance): empty matches every patient/session.
	PatientID string `json:"patientId,omitempty"`
	SessionID string `json:"sessionId,omitempty"`
	// Threshold overrides the params' distance threshold (<= 0 keeps
	// the default). K > 0 caps each incremental evaluation to the k
	// best new matches.
	Threshold float64 `json:"threshold,omitempty"`
	K         int     `json:"k,omitempty"`
}

// What a journalled subscription may hold: wal's decoder refuses more
// on recovery, so the registration is refused instead.
const (
	maxSubDims   = 64
	maxSubString = 1 << 20
)

// Validate reports why a decoded request cannot be registered, in the
// words a client sees with the 400.
func (req SubscriptionRequest) Validate() error {
	if len(req.Seq) < 2 {
		return errors.New("pattern needs at least 2 vertices")
	}
	if err := req.Seq.Validate(); err != nil {
		return fmt.Errorf("invalid pattern: %w", err)
	}
	if req.K < 0 || uint64(req.K) > math.MaxUint32 {
		return fmt.Errorf("k must be in [0, %d], got %d", uint32(math.MaxUint32), req.K)
	}
	if d := req.Seq.Dims(); d > maxSubDims {
		return fmt.Errorf("pattern has %d dimensions, at most %d can be journalled", d, maxSubDims)
	}
	if max(len(req.ID), len(req.PatientID), len(req.SessionID)) > maxSubString {
		return fmt.Errorf("id, patientId and sessionId take at most %d bytes each", maxSubString)
	}
	return nil
}

// state is the subscription a validated request registers.
func (req SubscriptionRequest) state() wal.SubState {
	return wal.SubState{
		ID:        req.ID,
		PatientID: req.PatientID,
		SessionID: req.SessionID,
		Threshold: req.Threshold,
		K:         uint32(req.K),
		Pattern:   req.Seq,
	}
}

// SubscriptionResponse acknowledges a registration.
type SubscriptionResponse struct {
	ID            string   `json:"id"`
	PatientID     string   `json:"patientId,omitempty"`
	SessionID     string   `json:"sessionId,omitempty"`
	Threshold     float64  `json:"threshold"`
	K             int      `json:"k,omitempty"`
	PatternN      int      `json:"patternN"`
	ReplicaErrors []string `json:"replicaErrors,omitempty"`
}

// SubEventOut is one pushed match event in wire form: a RemoteMatch
// plus the subscription's event sequence number (the SSE event ID a
// consumer resumes from) and the matched window's end time.
type SubEventOut struct {
	Seq       uint64  `json:"seq"`
	PatientID string  `json:"patientId"`
	SessionID string  `json:"sessionId"`
	Start     int     `json:"start"`
	N         int     `json:"n"`
	Relation  string  `json:"relation"`
	Distance  float64 `json:"distance"`
	Weight    float64 `json:"weight"`
	EndT      float64 `json:"endT"`
}

func eventOut(e wal.SubEvent) SubEventOut {
	return SubEventOut{
		Seq:       e.Seq,
		PatientID: e.PatientID,
		SessionID: e.SessionID,
		Start:     int(e.Start),
		N:         int(e.N),
		Relation:  core.SourceRelation(e.Relation).String(),
		Distance:  e.Distance,
		Weight:    e.Weight,
		EndT:      e.EndT,
	}
}

// subScopeCovers reports whether a subscription's scope includes the
// given stream (mirrors subscribe's in-scope rule for the replication
// fan-out, which needs it outside the manager).
func subScopeCovers(st wal.SubState, patientID, sessionID string) bool {
	return (st.PatientID == "" || st.PatientID == patientID) &&
		(st.SessionID == "" || st.SessionID == sessionID)
}

func (s *Server) handleCreateSubscription(w http.ResponseWriter, r *http.Request) {
	var req SubscriptionRequest
	if err := s.decodeJSONBody(w, r, &req); err != nil {
		httpError(w, bodyErrCode(err), fmt.Errorf("decoding subscription: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		req.ID = "sub-" + hex.EncodeToString(b[:])
	}
	st := req.state()
	repls, code, err := s.registerSubscription(r, &st)
	if err != nil {
		httpError(w, code, err)
		return
	}
	var replErrs []string
	for _, repl := range repls {
		replErrs = append(replErrs, s.replFlush(r.Context(), repl)...)
	}
	s.log.Info("subscription registered",
		slog.String("id", st.ID),
		slog.String("patientId", st.PatientID),
		slog.String("sessionId", st.SessionID),
		slog.Int("patternN", len(st.Pattern)),
		slog.String("requestId", obs.RequestIDFrom(r.Context())))
	writeJSON(w, http.StatusCreated, SubscriptionResponse{
		ID:            st.ID,
		PatientID:     st.PatientID,
		SessionID:     st.SessionID,
		Threshold:     st.Threshold,
		K:             int(st.K),
		PatternN:      len(st.Pattern),
		ReplicaErrors: replErrs,
	})
}

// registerSubscription performs the locked portion of registration:
// capture the baseline cursors, journal + fsync the upsert before it
// is acknowledged, and stage it on the replication links of every
// in-scope replicated session so followers arm it too. The returned
// replicators must be flushed by the caller outside the lock.
func (s *Server) registerSubscription(r *http.Request, st *wal.SubState) ([]*replicator, int, error) {
	s.lock()
	defer s.mu.Unlock()
	if s.subs.Has(st.ID) {
		return nil, http.StatusConflict, fmt.Errorf("subscription %q already exists", st.ID)
	}
	if _, err := s.subs.Register(st, s.db); err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Durable before the 201: a recovered node must re-arm exactly the
	// subscriptions whose creation was acknowledged.
	upsert := wal.Record{Type: wal.TypeSubUpsert, Sub: st}
	if err := s.journalSync(r.Context(), upsert); err != nil {
		s.subs.Delete(st.ID)
		return nil, http.StatusInternalServerError, fmt.Errorf("flushing subscription: %w", err)
	}
	return s.enqueueSubRecord(upsert, *st), 0, nil
}

// enqueueSubRecord stages a subscription record on the links of every
// in-scope session something follows — replicas and, mid-hand-off, the
// migration target alike. Callers hold s.mu.
func (s *Server) enqueueSubRecord(rec wal.Record, st wal.SubState) []*replicator {
	var repls []*replicator
	for _, sess := range s.sessions {
		if sess.repl != nil && subScopeCovers(st, sess.patientID, sess.sessionID) {
			sess.repl.enqueue(rec)
			repls = append(repls, sess.repl)
		}
	}
	return repls
}

func (s *Server) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"subscriptions": s.subs.List()})
}

func (s *Server) handleDeleteSubscription(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	repls, code, err := func() ([]*replicator, int, error) {
		s.lock()
		defer s.mu.Unlock()
		st, ok := s.subs.State(id)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no subscription %q", id)
		}
		// Journal and fsync the delete before removing, so a 200 means
		// the subscription can never resurrect after recovery.
		del := wal.Record{Type: wal.TypeSubDelete, SubID: id}
		if err := s.journalSync(r.Context(), del); err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("flushing subscription delete: %w", err)
		}
		s.subs.Delete(id)
		return s.enqueueSubRecord(del, st), 0, nil
	}()
	if err != nil {
		httpError(w, code, err)
		return
	}
	for _, repl := range repls {
		if errs := s.replFlush(r.Context(), repl); len(errs) > 0 {
			s.log.Warn("subscription delete not replicated everywhere", slog.Any("replicaErrors", errs))
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// ackSubscription journals and applies a delivery acknowledgement:
// the consumer told us (via Last-Event-ID or a poll cursor) that it
// has everything up to seq. A seq past the last emitted event
// acknowledges that event, and it is the clamped value that is
// journaled and shipped. Best-effort durable (no fsync — a lost ack
// only means redelivery, which the consumer's resume filter already
// dedups) and staged on in-scope replication links so a promoted
// follower trims too.
func (s *Server) ackSubscription(r *http.Request, id string, seq uint64) {
	s.lock()
	st, ok := s.subs.State(id)
	seq = min(seq, st.NextSeq-1)
	if !ok || seq <= st.Delivered {
		s.mu.Unlock()
		return
	}
	ack := wal.Record{Type: wal.TypeSubAck, SubID: id, SubAck: seq}
	s.walAppendCtx(r.Context(), ack)
	s.subs.Ack(id, seq)
	repls := s.enqueueSubRecord(ack, st)
	s.mu.Unlock()
	// Ship with the request, but do not fail it: the ack rides the
	// next ingest flush anyway if a replica is unreachable.
	for _, repl := range repls {
		s.replFlush(r.Context(), repl)
	}
}

// SubEventsPoll is the long-poll (mode=poll) payload.
type SubEventsPoll struct {
	Events []SubEventOut `json:"events"`
	Next   uint64        `json:"next"` // pass as ?after= (acks this batch)
}

// handleSubEvents streams a subscription's match events. Default is
// SSE (`id:` = event sequence, `data:` = SubEventOut JSON) with
// keep-alive comments; `?mode=poll[&wait=30s]` long-polls one JSON
// batch instead. A reconnect with `Last-Event-ID` (or `?after=`)
// resumes after the given sequence and acknowledges everything at or
// below it.
func (s *Server) handleSubEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.subs.Has(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("no subscription %q", id))
		return
	}
	after := uint64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q", v))
			return
		}
		after = n
	} else if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
		after = n
	}
	if after > 0 {
		s.ackSubscription(r, id, after)
	}
	if r.URL.Query().Get("mode") == "poll" {
		s.pollSubEvents(w, r, id, after)
		return
	}

	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, errors.New("streaming unsupported; use ?mode=poll"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	// The SSE response carries the trace it belongs to, so a consumer
	// can correlate pushed events with the registering request's trace
	// tree (X-Trace-Id is set by the tracing middleware; Traceparent
	// is injected here for downstream propagation).
	obs.InjectHeaders(r.Context(), h)
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(subHeartbeat)
	defer hb.Stop()
	cursor := after
	for {
		events, wait, ok := s.subs.Read(id, cursor)
		if !ok {
			return // deleted mid-stream: end the event stream
		}
		for _, e := range events {
			data, err := json.Marshal(eventOut(e))
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data); err != nil {
				return
			}
			cursor = e.Seq
		}
		if len(events) > 0 {
			fl.Flush()
			s.subs.NoteDelivered(id, len(events))
			continue // drain anything that arrived while writing
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// pollSubEvents is the long-poll fallback: waits up to ?wait= (default
// 0: answer immediately) for events after the cursor, then returns one
// JSON batch.
func (s *Server) pollSubEvents(w http.ResponseWriter, r *http.Request, id string, after uint64) {
	var deadline <-chan time.Time
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", ws))
			return
		}
		if d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			deadline = t.C
		}
	}
	for {
		events, wait, ok := s.subs.Read(id, after)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no subscription %q", id))
			return
		}
		if len(events) > 0 || deadline == nil {
			resp := SubEventsPoll{Events: make([]SubEventOut, 0, len(events)), Next: after}
			for _, e := range events {
				resp.Events = append(resp.Events, eventOut(e))
				resp.Next = e.Seq
			}
			s.subs.NoteDelivered(id, len(events))
			obs.InjectHeaders(r.Context(), w.Header())
			writeJSON(w, http.StatusOK, resp)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		case <-deadline:
			deadline = nil // answer (possibly empty) on the next pass
		}
	}
}
