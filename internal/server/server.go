// Package server implements the online ingestion and prediction HTTP
// service: the deployment shape of the paper's Figure 1 system. A
// treatment console opens a session, streams position samples as they
// are imaged, and polls predictions; the server runs the online
// segmenter per session, maintains the hierarchical stream database
// (including any preloaded historical sessions), and serves
// subsequence-matching predictions with the same machinery the offline
// tools use.
//
// The API is deliberately small and stdlib-only:
//
//	POST   /v1/sessions                 {"patientId","sessionId"}   -> 201
//	POST   /v1/sessions/{sid}/samples   [{"t","pos"},...]           -> appended vertices
//	DELETE /v1/sessions/{sid}                                      -> close session
//	GET    /v1/sessions/{sid}/predict?delta=200ms                  -> prediction
//	GET    /v1/sessions/{sid}/plr                                  -> current PLR
//	POST   /v1/match                    {"seq",...,"k"}            -> similarity search
//	GET    /v1/stats                                               -> database stats
//	GET    /v1/shard/stats                                         -> shard-local inventory
//	GET    /v1/healthz                                             -> health: 200 ok, 503 on a failed WAL
//	GET    /metrics                                                -> Prometheus text format
//
// /v1/match and /v1/shard/stats exist for the sharding gateway
// (internal/shard): the former runs a similarity search for a
// serialized query sequence, the latter inventories open sessions so
// a restarted gateway can rediscover session placement. The gateway's
// own /v1/match legs arrive in internal/wal's binary leg format on the
// same route (see handleMatch); everything a client sees is JSON.
//
// A request body is exactly one JSON value: trailing bytes other than
// whitespace are a 400, a body over DefaultMaxBodyBytes a 413.
//
// With Options.DataDir set, every handler journals the records it
// builds to a write-ahead log, compacted into snapshots (see
// internal/wal); a restarted server recovers the database and resumes
// open sessions.
//
// Every route is instrumented through internal/obs: request counts by
// status class, latency histograms, an in-flight gauge, and
// request-ID-tagged access logs.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/core"
	"stsmatch/internal/frame"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// Server is the HTTP ingestion/prediction service.
type Server struct {
	mu       sync.Mutex
	db       *store.DB
	params   core.Params
	segCfg   fsm.Config
	sessions map[string]*session
	mux      *http.ServeMux
	log      *slog.Logger
	met      *serverMetrics
	start    time.Time
	wal      *durability // nil when Options.DataDir is unset

	// subs holds the standing subscriptions (see subscriptions.go and
	// internal/subscribe). Created before durability opens so WAL
	// recovery can re-arm persisted subscriptions and replay their
	// incremental evaluations in log order.
	subs *subscribe.Manager

	// col is this server's trace collector: per-instance (not global)
	// so in-process multi-node tests and embedded deployments keep
	// genuinely separate trace stores.
	col *obs.Collector

	// replay interprets this node's records (guarded by mu): the one that
	// recovered the data dir, else a fresh one. It applies what a follower
	// is shipped and the promote, close and migration records this node
	// journals, so it is the one table of what they decided: sessions
	// owned and followed (with the position in each), prepares (fences)
	// and tombstones. Then this node's advertised URL, and the source
	// allowlist for /v1/replicate (see replication.go).
	replay    *wal.Replay
	advertise string
	replFrom  []string

	// shipping holds the replicator of every session in sessions, under
	// its own lock, so the lag gauge reads the backlog without waiting on
	// mu, which a snapshot holds while it writes. Only open and retire
	// change it, under mu.
	shippingMu sync.Mutex
	shipping   map[*replicator]struct{}

	// peers carries replication shipments and migration promotes to other
	// shards; frames serves every request, HTTP or framed.
	peers  http.RoundTripper
	frames frame.Server

	// testHookMigrate, when non-nil, runs at each migration phase
	// boundary; chaos tests kill nodes there (see SetMigrationHook).
	testHookMigrate atomic.Pointer[func(phase string)]

	// matchers lends core.Matcher instances (one in flight per search;
	// a Matcher carries scratch buffers and kept answers and is not safe
	// for concurrent use). The matchers wrap the server's live
	// *store.DB, so they never go stale as sessions append — no
	// per-request construction and, crucially, no similarity search
	// under s.mu.
	matchers *matcherSet
}

// session is one live ingestion stream.
type session struct {
	patientID string
	sessionID string
	seg       *fsm.Segmenter
	stream    *store.Stream
	samples   int
	lastT     float64
	lastPos   []float64

	// repl is the one place records are staged for whoever follows this
	// session: replicas and, during a hand-off, the migration target.
	// Never nil; built wherever this node became the session's owner.
	repl *replicator

	// handoff is the target of a migration in flight here and the
	// followers it keeps, nil when unknown (handOverLocked). The session
	// is fenced while s.replay holds the migration's prepare.
	handoff []string

	// acked is the longest stream an ingest acknowledged with a replica
	// error, or that this node resumed: a follower may lack it, so a yield
	// needs the new owner to hold it (yieldTo). superseded is the epoch of
	// an owner this node could not hand the session over to (supersede):
	// the gate takes no further write.
	acked      int
	superseded uint64
}

// NewWithOptions builds a server around an existing database (which
// may already hold historical sessions for cross-session matching); the
// database is owned by the server afterwards. When opts.DataDir is set,
// the server recovers the write-ahead log before serving: the recovered
// database replaces db (db then only seeds a fresh data dir), and
// sessions open at the crash resume mid-stream.
func NewWithOptions(db *store.DB, params core.Params, segCfg fsm.Config, opts Options) (*Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := segCfg.Validate(); err != nil {
		return nil, err
	}
	if db == nil {
		db = store.NewDB()
	}
	s := &Server{
		db:        db,
		params:    params,
		segCfg:    segCfg,
		sessions:  make(map[string]*session),
		mux:       http.NewServeMux(),
		log:       obs.Logger("server"),
		met:       newServerMetrics(obs.Default()),
		start:     time.Now(),
		shipping:  make(map[*replicator]struct{}),
		advertise: opts.AdvertiseURL,
		replFrom:  opts.ReplicateFrom,
		col:       obs.NewCollector(obs.DefaultTraceCapacity, opts.TraceSlowThreshold),
	}
	obs.RegisterBuildInfo(obs.Default())
	s.frames.MaxBody = DefaultMaxBodyBytes
	s.peers = cmp.Or[http.RoundTripper](opts.ReplicateTransport, &frame.Transport{})
	s.subs = subscribe.NewManager(params, subscribe.DefaultBuffer)
	if opts.DataDir != "" {
		if err := s.openDurability(db, opts); err != nil {
			return nil, err
		}
	} else {
		s.replay = wal.NewReplay(s.db)
	}
	liveServer.Store(s)
	// Appends buffer deltas for standing-query evaluation; the ingest
	// and replication paths drain them synchronously under s.mu, so
	// event order is deterministic, after journaling the append.
	s.db.AddMutationHook(s.subs.OnMutation)
	s.matchers = newMatcherSet(s.db, s.params) // params validated above
	s.route("POST /v1/sessions", "create_session", s.handleCreateSession)
	s.route("POST /v1/sessions/{sid}/samples", "ingest_samples", s.handleSamples)
	s.route("DELETE /v1/sessions/{sid}", "close_session", s.handleCloseSession)
	s.route("GET /v1/sessions/{sid}/predict", "predict", s.handlePredict)
	s.route("GET /v1/sessions/{sid}/plr", "plr", s.handlePLR)
	s.route("POST /v1/replicate", "replicate", s.handleReplicate)
	s.route("POST /v1/sessions/{sid}/promote", "promote", s.handlePromote)
	s.route("POST /v1/sessions/{sid}/migrate", "migrate_session", s.handleMigrate)
	s.route("POST /v1/match", "match", s.handleMatch)
	s.route("POST /v1/subscriptions", "create_subscription", s.handleCreateSubscription)
	s.route("GET /v1/subscriptions", "list_subscriptions", s.handleListSubscriptions)
	s.route("DELETE /v1/subscriptions/{id}", "delete_subscription", s.handleDeleteSubscription)
	s.route("GET /v1/subscriptions/{id}/events", "subscription_events", s.handleSubEvents)
	s.route("GET /v1/stats", "stats", s.handleStats)
	s.route("GET /v1/shard/stats", "shard_stats", s.handleShardStats)
	s.route("GET /v1/healthz", "healthz", s.handleHealthz)
	s.mux.Handle("GET /v1/traces", s.met.http.Wrap("traces", s.col.Handler()))
	// /metrics is excluded from the access log and from tracing, but
	// still counts in the request metrics like any other route.
	s.mux.Handle("GET /metrics", s.met.http.WrapScrape("metrics", obs.Default().Handler()))
	s.frames.Handler = obs.RequestID(obs.TraceHTTP("server", s.col, obs.AccessLog(s.log, s.mux)))
	return s, nil
}

// Traces exposes the server's trace collector (daemon wiring, tests).
func (s *Server) Traces() *obs.Collector { return s.col }

// route registers a handler wrapped with per-route instrumentation.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.met.http.Wrap(name, h))
}

// ServeHTTP implements http.Handler; an upgrade to the frame carrier
// (internal/frame) takes the connection over.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.frames.ServeHTTP(w, r) }

// OpenSessions returns the number of currently open ingestion
// sessions (used by daemons for shutdown reporting).
func (s *Server) OpenSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// lock acquires the session lock, recording how long the caller
// waited — the contention signal for the ingestion/prediction paths.
func (s *Server) lock() {
	start := time.Now()
	s.mu.Lock()
	s.met.lockWait.Observe(time.Since(start).Seconds())
}

// capBody applies the request-body limit (DefaultMaxBodyBytes) on a
// body-accepting handler, so decoding a hostile body aborts at the cap
// instead of exhausting the shard's memory.
func capBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
}

// bodyErrCode maps a request-decode error to a status code: 413 when
// the body cap tripped, 400 otherwise.
func bodyErrCode(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// CreateSessionRequest opens a new ingestion session. Replicate lists
// replica base URLs this node must ship the session's records to (the
// gateway computes them from ring placement); empty means unreplicated.
type CreateSessionRequest struct {
	PatientID string   `json:"patientId"`
	SessionID string   `json:"sessionId"`
	Replicate []string `json:"replicate,omitempty"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		httpError(w, bodyErrCode(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.PatientID == "" || req.SessionID == "" {
		httpError(w, http.StatusBadRequest, errors.New("patientId and sessionId are required"))
		return
	}
	if max(len(req.PatientID), len(req.SessionID)) > binfmt.MaxIDBytes {
		// Every journalled vertex carries both IDs, and recovery reads
		// no longer string back.
		httpError(w, http.StatusBadRequest, fmt.Errorf("patientId and sessionId take at most %d bytes each", binfmt.MaxIDBytes))
		return
	}
	repl, code, err := s.createSession(req)
	if err != nil {
		httpError(w, code, err)
		return
	}
	// Ship the open synchronously: a 201 means the replicas know the
	// session exists (or the response says which ones do not).
	replErrs := s.replFlush(r.Context(), repl)
	s.log.Info("session opened",
		slog.String("patientId", req.PatientID),
		slog.String("sessionId", req.SessionID),
		slog.Int("replicas", len(req.Replicate)),
		slog.String("requestId", obs.RequestIDFrom(r.Context())))
	writeJSON(w, http.StatusCreated, map[string]any{
		"patientId":     req.PatientID,
		"sessionId":     req.SessionID,
		"replicaErrors": replErrs,
	})
}

// createSession performs the locked portion of session creation: the
// session opens here at epoch 1, journaled as a patient-upsert (for a
// new patient), a stream-open and its owner's promote, and its links
// start with a catch-up, so the first flush carries the patient and the
// empty stream. It returns the replicator to flush.
func (s *Server) createSession(req CreateSessionRequest) (*replicator, int, error) {
	s.lock()
	defer s.mu.Unlock()
	if _, exists := s.sessions[req.SessionID]; exists {
		return nil, http.StatusConflict, fmt.Errorf("session %q already open", req.SessionID)
	}
	p := s.db.Patient(req.PatientID)
	if p == nil {
		var err error
		p, err = s.db.AddPatient(store.PatientInfo{ID: req.PatientID})
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		s.walAppend(wal.Record{Type: wal.TypePatientUpsert, Patient: p.Info})
	}
	if p.StreamBySession(req.SessionID) != nil {
		return nil, http.StatusConflict, fmt.Errorf("session %q already stored", req.SessionID)
	}
	seg, err := fsm.New(s.segCfg)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	sess := &session{
		patientID: req.PatientID,
		sessionID: req.SessionID,
		seg:       seg,
		stream:    p.AddStream(req.SessionID),
		repl:      newReplicator(req.PatientID, req.SessionID, s.advertise, 1, req.Replicate),
	}
	s.walAppend(wal.Record{Type: wal.TypeStreamOpen, PatientID: req.PatientID, SessionID: req.SessionID})
	owner := sess.ownerRecord()
	s.walAppend(owner)
	s.replay.Apply(owner) //nolint:errcheck // a promote always applies
	s.open(sess)
	return sess.repl, 0, nil
}

// SampleIn is one ingested observation.
type SampleIn struct {
	T   float64   `json:"t"`
	Pos []float64 `json:"pos"`
}

// SamplesResponse reports the ingestion outcome. ReplicaErrors lists
// replicas that could not be brought current before the ack — for a
// replicated session, an absent list means every configured replica
// holds everything this response acknowledges.
type SamplesResponse struct {
	Accepted      int      `json:"accepted"`
	NewVertices   int      `json:"newVertices"`
	TotalSamples  int      `json:"totalSamples"`
	CurrentState  string   `json:"currentState"`
	ReplicaErrors []string `json:"replicaErrors,omitempty"`
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	buf, err := readBody(w, r)
	if err != nil {
		httpError(w, bodyErrCode(err), fmt.Errorf("decoding samples: %w", err))
		return
	}
	// The decoded batch copies every number out of the body.
	batch, err := decodeSamples(buf.Bytes())
	releaseBody(buf)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding samples: %w", err))
		return
	}
	resp, sess, end, staged, code, err := s.ingestLocked(r.Context(), sid, batch)
	if sess != nil {
		// Ship before answering — even on error, so replicas hold exactly
		// what this node stored. The ack then implies every healthy
		// replica has every acknowledged vertex.
		errs := s.replFlush(r.Context(), sess.repl)
		resp.ReplicaErrors = errs
		if staged || len(errs) > 0 {
			// Ask the gate again. A supersede since leaves the write
			// unacknowledged: the owner may lack it, and the flush may
			// have met no refusal, for supersede drops the links. A yield
			// or close since leaves it so only if a follower lacks it; a
			// clean flush reached every link, the new owner's included.
			s.lock()
			switch _, c, e := s.gate(sid, opRides, sess); {
			case e == nil:
				if len(errs) > 0 {
					sess.acked = max(sess.acked, end)
				}
			case len(errs) > 0 || c == http.StatusConflict: // opRides meets 409 only superseded
				code, err = c, e
			}
			s.mu.Unlock()
		}
	}
	switch {
	case code == http.StatusNotFound:
		s.goneOr404(w, sid)
	case err != nil:
		httpError(w, code, err)
	default:
		writeSamplesAck(w, resp)
	}
}

// writeSamplesAck answers an ingest with the bytes writeJSON gives resp,
// appended without reflection unless a replica error rides along.
func writeSamplesAck(w http.ResponseWriter, resp SamplesResponse) {
	if len(resp.ReplicaErrors) == 0 {
		a := NewJSONAnswer()
		a.Raw(`{"accepted":`)
		a.Int(resp.Accepted)
		a.Raw(`,"newVertices":`)
		a.Int(resp.NewVertices)
		a.Raw(`,"totalSamples":`)
		a.Int(resp.TotalSamples)
		a.Raw(`,"currentState":`)
		a.str(resp.CurrentState)
		a.Raw("}\n")
		if a.Write(w, http.StatusOK) {
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestLocked runs one ingest batch under the session lock, journals
// the records it builds (one vertex-append holding every vertex that
// landed, the anchor) and stages the same records on the session's
// replica links. The returned session's replicator must be flushed by
// the caller after the lock is released; end is the stream's length
// after the batch, and staged reports that a link took the records.
// With no session (the gate refused it) nothing was stored.
func (s *Server) ingestLocked(ctx context.Context, sid string, batch []SampleIn) (resp SamplesResponse, sess *session, end int, staged bool, code int, err error) {
	s.lock()
	defer s.mu.Unlock()
	sess, code, err = s.gate(sid, opIngest, nil)
	if err != nil {
		return resp, nil, 0, false, code, err
	}
	start := sess.stream.Len()
	var newVs []plr.Vertex
	var pushErr error
	var pushCode int
	for _, in := range batch {
		vs, err := sess.seg.Push(plr.Sample{T: in.T, Pos: in.Pos})
		if err != nil {
			pushErr = fmt.Errorf("sample at t=%v: %w", in.T, err)
			pushCode = http.StatusBadRequest
			break
		}
		if err := sess.stream.Append(vs...); err != nil {
			// The prefix the stream took before refusing is stored, so
			// it is journaled and shipped too.
			newVs = append(newVs, vs[:sess.stream.Len()-start-len(newVs)]...)
			pushErr = err
			pushCode = http.StatusInternalServerError
			break
		}
		newVs = append(newVs, vs...)
		sess.samples++
		sess.lastT = in.T
		sess.lastPos = append(sess.lastPos[:0], in.Pos...)
		resp.Accepted++
		resp.NewVertices += len(vs)
	}
	s.met.samplesIn.Add(resp.Accepted)
	s.met.verticesOut.Add(resp.NewVertices)
	// Journal the vertices before evaluating standing queries, so a
	// vertex is journaled before a standing query can match it. Then
	// evaluate the windows they just closed — synchronously, still under
	// s.mu, so every subscription observes appends in exactly ingest
	// order.
	appended := wal.Record{Type: wal.TypeVertexAppend, PatientID: sess.patientID, SessionID: sess.sessionID, Vertices: newVs}
	if len(newVs) > 0 {
		s.walAppendCtx(ctx, appended)
	}
	s.subs.Drain(ctx, s.db)
	var anchor wal.Record
	if resp.Accepted > 0 {
		// The raw-sample anchor, so a recovered or promoted session
		// predicts from exactly the newest observation.
		anchor = sess.anchorRecord()
		s.walAppendCtx(ctx, anchor)
	}
	if staged = !sess.repl.idle(); staged {
		// Stage exactly what was journaled — including partial progress
		// before an error — so replicas never trail what we kept.
		recs := make([]wal.Record, 0, 2)
		if len(newVs) > 0 {
			recs = append(recs, appended)
		}
		if resp.Accepted > 0 {
			recs = append(recs, anchor)
		}
		sess.repl.enqueue(recs...)
	}
	if pushErr != nil {
		return resp, sess, sess.stream.Len(), staged, pushCode, pushErr
	}
	resp.TotalSamples = sess.samples
	resp.CurrentState = sess.seg.CurrentState().String()
	return resp, sess, sess.stream.Len(), staged, 0, nil
}

// writeOp is a write door as the gate sees it: what the door answers
// while a migration cutover fences the session.
type writeOp uint8

const (
	opIngest writeOp = iota // 503: a write taken now could be lost when the target takes over; retryable
	opClose                 // 409: close it on its new home
	opRides                 // taken, riding the link: an ingest's ack, a migrate's re-drive, a subscription operation
)

// gate is the one answer to "does this node take write op on session
// sid now?": the session when it does, else the status and error to
// answer. held is the session the door took earlier (nil at its first
// call), which must still be the one live here. A superseded session
// takes no write (409 naming the owner's epoch); a fenced one answers
// as op says. Callers hold s.mu.
func (s *Server) gate(sid string, op writeOp, held *session) (*session, int, error) {
	sess, ok := s.sessions[sid]
	switch {
	case !ok || held != nil && sess != held:
		return nil, http.StatusNotFound, fmt.Errorf("no open session %q", sid)
	case sess.superseded > 0:
		return nil, http.StatusConflict, fmt.Errorf("session %q is owned at epoch %d elsewhere, by a node it could not be handed over to; this node keeps its copy", sid, sess.superseded)
	case op == opRides || !s.fenced(sid):
		return sess, 0, nil
	case op == opIngest:
		return nil, http.StatusServiceUnavailable, fmt.Errorf("session %q is migrating; retry shortly", sid)
	}
	return nil, http.StatusConflict, fmt.Errorf("session %q is mid-migration; close it on its new home", sid)
}

// CloseSessionResponse reports the final state of a closed session.
type CloseSessionResponse struct {
	PatientID    string `json:"patientId"`
	SessionID    string `json:"sessionId"`
	TotalSamples int    `json:"totalSamples"`
	Vertices     int    `json:"vertices"`
}

// handleCloseSession closes an open ingestion session: the stream
// stays in the database as history, the segmenter is released, and —
// with durability on — the close is journaled and flushed so the
// session does not resurrect on restart. Without this endpoint the
// sessions map only ever grows.
func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	sess, code, err := func() (*session, int, error) {
		s.lock()
		defer s.mu.Unlock()
		sess, code, err := s.gate(sid, opClose, nil)
		if err != nil {
			return nil, code, err
		}
		// Journal and fsync the close record before removing the
		// session, so a 200 really means "durably closed": if the flush
		// fails the session stays open and the client can retry.
		// Holding s.mu across one fsync is acceptable on this rare path.
		closed := wal.Record{Type: wal.TypeSessionClose, SessionID: sid}
		if err := s.decide(r.Context(), closed); err != nil {
			s.log.Error("flushing session close", slog.Any("err", err))
			return nil, http.StatusInternalServerError, fmt.Errorf("flushing session close: %w", err)
		}
		sess.repl.enqueue(closed)
		s.retire(sess)
		s.met.sessionsClosed.Inc()
		return sess, 0, nil
	}()
	if err != nil {
		if code == http.StatusNotFound {
			s.goneOr404(w, sid)
			return
		}
		httpError(w, code, err)
		return
	}
	// Tell the replicas the session is closed; failures are logged (a
	// lagging replica just keeps stale follower state around).
	if errs := s.replFlush(r.Context(), sess.repl); len(errs) > 0 {
		s.log.Warn("close not replicated everywhere", slog.Any("replicaErrors", errs))
	}
	s.log.Info("session closed",
		slog.String("patientId", sess.patientID),
		slog.String("sessionId", sid),
		slog.Int("samples", sess.samples),
		slog.String("requestId", obs.RequestIDFrom(r.Context())))
	writeJSON(w, http.StatusOK, CloseSessionResponse{
		PatientID:    sess.patientID,
		SessionID:    sid,
		TotalSamples: sess.samples,
		Vertices:     sess.stream.Len(),
	})
}

// PredictionResponse is the prediction payload.
type PredictionResponse struct {
	Pos        []float64 `json:"pos"`
	DeltaMS    float64   `json:"deltaMs"`
	NumMatches int       `json:"numMatches"`
	MeanDist   float64   `json:"meanDist"`
	QueryLen   int       `json:"queryLen"`
	Stable     bool      `json:"stable"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	deltaStr := r.URL.Query().Get("delta")
	if deltaStr == "" {
		deltaStr = "200ms"
	}
	delta, err := time.ParseDuration(deltaStr)
	if err != nil || delta < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad delta %q", deltaStr))
		return
	}

	// Snapshot the session under the lock, then run the expensive
	// similarity search and prediction outside it so concurrent
	// ingestion is never blocked behind a search.
	s.lock()
	sess, ok := s.sessions[sid]
	if !ok {
		s.mu.Unlock()
		s.goneOr404(w, sid)
		return
	}
	patientID, sessionID := sess.patientID, sess.sessionID
	lastT := sess.lastT
	lastPos := append([]float64(nil), sess.lastPos...)
	// The dynamic query reads at most the stream's last
	// MaxQueryVertices, so only that tail is copied out of the columns.
	view := sess.stream.ScanView("")
	n := view.Len()
	m := min(n, s.params.MaxQueryVertices())
	seq := view.Window(n-m, m)
	s.mu.Unlock()

	if len(seq) < 2 {
		s.met.predictions.With("insufficient_history").Inc()
		httpError(w, http.StatusConflict, errors.New("not enough segmented history yet"))
		return
	}
	qseq, info := s.params.DynamicQuery(seq)
	q := core.NewQuery(qseq, patientID, sessionID)
	matcher := s.matchers.get() // returned, as in handleMatch, before the answer is written
	// Anchor the forecast at the newest *observation*, not the last
	// PLR vertex (which can lag it by most of a segment): predict the
	// displacement from the observation time to observation+delta and
	// add it to the observed position.
	d1 := lastT - q.Now
	d2 := d1 + delta.Seconds()
	work := time.Now()
	disp, matches, meanDist, err := matcher.PredictDisplacementCtx(r.Context(), q, d1, d2, 0)
	s.matchers.put(matcher)
	s.met.predictWork.Observe(time.Since(work).Seconds())
	switch {
	case errors.Is(err, core.ErrNoMatches):
		s.met.predictions.With("no_matches").Inc()
		httpError(w, http.StatusConflict, err)
		return
	case err != nil:
		s.met.predictions.With("error").Inc()
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	finite := true
	for k := range disp {
		disp[k] += lastPos[k]
		finite = finite && !math.IsInf(disp[k], 0) && !math.IsNaN(disp[k])
	}
	if !finite {
		// Σ w·(b−a) over many matches overflows for positions near the
		// float64 limit, and JSON cannot carry the result.
		s.met.predictions.With("error").Inc()
		httpError(w, http.StatusInternalServerError, fmt.Errorf("forecast is not finite: %v", disp))
		return
	}
	s.met.predictions.With("ok").Inc()
	writePrediction(w, PredictionResponse{
		Pos:        disp,
		DeltaMS:    float64(delta.Milliseconds()),
		NumMatches: matches,
		MeanDist:   meanDist,
		QueryLen:   len(qseq),
		Stable:     info.Stable,
	})
}

// writePrediction answers a prediction with the bytes writeJSON gives p,
// appended without reflection.
func writePrediction(w http.ResponseWriter, p PredictionResponse) {
	a := NewJSONAnswer()
	a.Raw(`{"pos":`)
	a.floats(p.Pos)
	a.Raw(`,"deltaMs":`)
	a.float(p.DeltaMS)
	a.Raw(`,"numMatches":`)
	a.Int(p.NumMatches)
	a.Raw(`,"meanDist":`)
	a.float(p.MeanDist)
	a.Raw(`,"queryLen":`)
	a.Int(p.QueryLen)
	a.Raw(`,"stable":`)
	a.Raw(strconv.FormatBool(p.Stable))
	a.Raw("}\n")
	if !a.Write(w, http.StatusOK) {
		writeJSON(w, http.StatusOK, p)
	}
}

// PLRResponse carries the current segmented representation.
type PLRResponse struct {
	Vertices    []plr.Vertex `json:"vertices"`
	StateString string       `json:"stateString"`
}

func (s *Server) handlePLR(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	s.lock()
	sess, ok := s.sessions[sid]
	s.mu.Unlock()
	if !ok {
		s.goneOr404(w, sid)
		return
	}
	view := sess.stream.ScanView("")
	seq := view.Window(0, view.Len())
	writeJSON(w, http.StatusOK, PLRResponse{
		Vertices:    seq,
		StateString: seq.StateString(),
	})
}

// StatsResponse summarizes the database.
type StatsResponse struct {
	Patients     int `json:"patients"`
	Streams      int `json:"streams"`
	Vertices     int `json:"vertices"`
	OpenSessions int `json:"openSessions"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Patients:     s.db.NumPatients(),
		Streams:      len(s.db.Streams()),
		Vertices:     s.db.NumVertices(),
		OpenSessions: s.OpenSessions(),
	})
}

// HealthzResponse is the health payload: whether this node is healthy,
// and which binary answered. A node whose WAL has failed is
// "unhealthy" with a 503 and the log's error; every number about the
// node is on /metrics, /v1/stats or /v1/shard/stats.
type HealthzResponse struct {
	Status        string  `json:"status"` // ok | unhealthy
	Version       string  `json:"version"`
	GoVersion     string  `json:"goVersion"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Error         string  `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, goVersion := obs.BuildInfo()
	res := HealthzResponse{
		Status:        "ok",
		Version:       version,
		GoVersion:     goVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	code := http.StatusOK
	if s.wal != nil {
		if err := s.wal.log.Err(); err != nil {
			res.Status, res.Error, code = "unhealthy", err.Error(), http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, res)
}
