package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	"stsmatch/internal/wal"
)

// Gateway fronts N streamd backends. Session-scoped traffic (create,
// ingest, predict, PLR, close) is routed to the shard serving the
// session, and similarity queries scatter to every backend and gather
// into an exact merged result. Where a session lives and who follows it
// is decided by the gateway's placements (placement.go). When the
// health checker ejects a primary, the gateway promotes a follower
// (POST /v1/sessions/{sid}/promote); scatter queries stay complete —
// not degraded — while every dead shard's arcs are covered by an
// answering replica.
type Gateway struct {
	placements *placements
	pool       *Pool
	opts       Options
	mux        *http.ServeMux
	handler    http.Handler
	log        *slog.Logger
	met        *shardMetrics
	http       *obs.HTTPMetrics
	col        *obs.Collector
	start      time.Time

	// promoteMu serializes failovers so concurrent requests against a
	// dead primary elect exactly one replacement.
	promoteMu sync.Mutex
}

// NewGateway builds a gateway over the given backend base URLs.
func NewGateway(backends []string, opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	pool, err := NewPool(backends, opts)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		placements: newPlacements(backends, opts.Replicas),
		pool:       pool,
		opts:       opts,
		mux:        http.NewServeMux(),
		log:        obs.Logger("gateway"),
		met:        pool.met,
		http:       obs.NewHTTPMetrics(obs.Default(), "stsmatch_gateway"),
		col:        obs.NewCollector(obs.DefaultTraceCapacity, obs.DefaultSlowThreshold),
		start:      time.Now(),
	}
	obs.RegisterBuildInfo(obs.Default())
	g.route("POST /v1/sessions", "create_session", g.handleCreateSession)
	g.route("POST /v1/sessions/{sid}/samples", "ingest_samples", g.handleSessionScoped)
	g.route("DELETE /v1/sessions/{sid}", "close_session", g.handleSessionScoped)
	g.route("GET /v1/sessions/{sid}/predict", "predict", g.handleSessionScoped)
	g.route("GET /v1/sessions/{sid}/plr", "plr", g.handleSessionScoped)
	g.route("POST /v1/match", "match", g.handleMatch)
	g.route("POST /v1/subscriptions", "create_subscription", g.handleCreateSubscription)
	g.route("GET /v1/subscriptions", "list_subscriptions", g.handleListSubscriptions)
	g.route("DELETE /v1/subscriptions/{id}", "delete_subscription", g.handleDeleteSubscription)
	g.route("GET /v1/subscriptions/{id}/events", "subscription_events", g.handleSubEvents)
	g.route("GET /v1/stats", "stats", g.handleStats)
	g.route("GET /v1/healthz", "healthz", g.handleHealthz)
	g.route("POST /v1/admin/backends", "admin_add_backend", g.handleAddBackend)
	g.route("POST /v1/admin/rebalance", "admin_rebalance", g.handleRebalance)
	g.mux.Handle("GET /v1/traces", g.http.Wrap("traces", g.col.Handler()))
	// /metrics stays out of the access log and traces, but still counts
	// in the request metrics like any other route.
	g.mux.Handle("GET /metrics", g.http.WrapScrape("metrics", obs.Default().Handler()))
	g.handler = obs.RequestID(obs.TraceHTTP("gateway", g.col, obs.AccessLog(g.log, g.mux)))
	return g, nil
}

// Traces exposes the gateway's trace collector (daemon wiring, tests).
func (g *Gateway) Traces() *obs.Collector { return g.col }

func (g *Gateway) route(pattern, name string, h http.HandlerFunc) {
	g.mux.Handle(pattern, g.http.Wrap(name, h))
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.handler.ServeHTTP(w, r) }

// Close stops the pool's health checker.
func (g *Gateway) Close() { g.pool.Close() }

// errEjected is the error a scatter reports for a backend the health
// checker has ejected: it is not called.
var errEjected = errors.New("unhealthy (ejected)")

// answer is what one backend brought back from a scatter: its value, or
// why there is none.
type answer[T any] struct {
	backend *Backend
	val     T
	err     error
}

// scatter is the gateway's one fan-out: it calls call once per healthy
// backend of one Backends() snapshot, concurrently, and returns every
// backend's answer in snapshot order. An ejected backend is not called
// and answers errEjected.
func scatter[T any](p *Pool, call func(*Backend) (T, error)) []answer[T] {
	backends := p.Backends()
	answers := make([]answer[T], len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		answers[i].backend = b
		if !b.Healthy() {
			answers[i].err = errEjected
			continue
		}
		wg.Add(1)
		go func(a *answer[T]) {
			defer wg.Done()
			a.val, a.err = call(a.backend)
		}(&answers[i])
	}
	wg.Wait()
	return answers
}

// getJSON is the scatter call that GETs path from a backend (retried:
// a GET is idempotent) and decodes its 200 answer; any other status is
// an error in the backend's own words.
func getJSON[T any](ctx context.Context, p *Pool, path string) func(*Backend) (T, error) {
	return func(b *Backend) (T, error) {
		var v T
		status, body, _, err := p.do(ctx, b, http.MethodGet, path, "", nil, true)
		if err != nil {
			return v, err
		}
		if status != http.StatusOK {
			return v, fmt.Errorf("status %d: %s", status, errDetail(body))
		}
		return v, json.Unmarshal(body, &v)
	}
}

// inventories polls /v1/shard/stats on every healthy backend: what
// placement rediscovery, the rebalance diff and the gateway's /v1/stats
// read.
func (g *Gateway) inventories(ctx context.Context) []answer[server.ShardStatsResponse] {
	return scatter(g.pool, getJSON[server.ShardStatsResponse](ctx, g.pool, "/v1/shard/stats"))
}

// Pool exposes the gateway's backend pool (health introspection).
func (g *Gateway) Pool() *Pool { return g.pool }

// healthy is the backend health every placement decision reads: in the
// pool and admitted.
func (g *Gateway) healthy(u string) bool {
	b := g.pool.ByURL(u)
	return b != nil && b.Healthy()
}

// SessionPlacement reports where the gateway believes a session lives:
// the backend currently serving it and the full owner set (primary
// first). ok is false when the session is unknown to this gateway.
func (g *Gateway) SessionPlacement(sid string) (primary string, owners []string, ok bool) {
	primary, owners, _, ok = g.placements.lookup(sid)
	return primary, owners, ok
}

func gwError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

// gwJSON answers v as json.Encoder writes it, trailing newline included.
// The value is encoded before the status is written, so one
// encoding/json refuses is a 500 that says why, not an empty 200.
func gwJSON(w http.ResponseWriter, code int, v any) {
	out, err := json.Marshal(v)
	if err != nil {
		gwError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	relay(w, code, append(out, '\n'))
}

// readBody buffers a request body under the proxy cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	return readAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes), r.ContentLength)
}

// readAll is io.ReadAll into one buffer sized for n, the length the
// sender declared, where io.ReadAll grows one from 512 bytes. A length
// that is unknown (-1) or past the proxy cap starts as io.ReadAll does.
func readAll(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > server.DefaultMaxBodyBytes {
		n = 511
	}
	b := make([]byte, 0, n+1) // the spare byte lets the read that meets the end do so in place
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		} else if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// relay forwards a backend response verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck
}

// handleCreateSession places a session (placements.create) and names its
// followers in the create request, so the chosen shard streams its WAL
// to them from the first record.
func (g *Gateway) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		gwError(w, bodyErrCode(err), fmt.Errorf("reading request: %w", err))
		return
	}
	var req server.CreateSessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.PatientID == "" || req.SessionID == "" {
		gwError(w, http.StatusBadRequest, errors.New("patientId and sessionId are required"))
		return
	}
	primary, replicate, commit, err := g.placements.create(req.SessionID, req.PatientID, g.healthy)
	if err != nil {
		gwError(w, http.StatusServiceUnavailable, err)
		return
	}
	req.Replicate = replicate
	fwd, err := json.Marshal(req)
	if err != nil {
		gwError(w, http.StatusInternalServerError, err)
		return
	}
	status, respBody, _, err := g.pool.do(r.Context(), g.pool.ByURL(primary), http.MethodPost, "/v1/sessions", "application/json", fwd, false)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusCreated {
		commit()
		g.met.routed.With(primary).Inc()
		g.log.Info("session routed",
			slog.String("patientId", req.PatientID),
			slog.String("sessionId", req.SessionID),
			slog.String("backend", primary),
			slog.Int("replicas", len(req.Replicate)))
	}
	relay(w, status, respBody)
}

// handleSessionScoped forwards a session-addressed request to the
// shard currently serving the session, failing the session over to a
// replica first when the primary has been ejected. GETs are
// idempotent and retried; mutations get a single attempt.
func (g *Gateway) handleSessionScoped(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	b, known, err := g.serving(r.Context(), sid)
	if err != nil {
		code := http.StatusServiceUnavailable
		if !known {
			code = http.StatusNotFound
		}
		gwError(w, code, err)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		gwError(w, bodyErrCode(err), fmt.Errorf("reading request: %w", err))
		return
	}
	// The escaped path: r.URL.Path is decoded, and a session ID with a
	// reserved character ("a/b", "100%") would name another route.
	path := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	idempotent := r.Method == http.MethodGet
	status, respBody, respHdr, err := g.pool.do(r.Context(), b, r.Method, path, "application/json", body, idempotent)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusGone {
		// The session migrated away: the placement pointed at a
		// tombstoned source. Follow its Location hint, or else rediscover
		// the session from the shards' inventories, and retry exactly once
		// on the new owner — converging without bouncing the client.
		g.met.placementInvalidations.Inc()
		if hint := respHdr.Get("Location"); hint != "" && g.healthy(hint) {
			g.placements.movedTo(sid, hint)
			g.log.Info("placement repaired from tombstone hint",
				slog.String("sessionId", sid), slog.String("backend", hint))
		} else {
			g.placements.forget(sid)
		}
		if nb, _, _ := g.serving(r.Context(), sid); nb != nil && nb != b {
			b = nb
			status, respBody, _, err = g.pool.do(r.Context(), b, r.Method, path, "application/json", body, idempotent)
			if err != nil {
				gwError(w, http.StatusBadGateway, err)
				return
			}
		}
	}
	if r.Method == http.MethodDelete && status == http.StatusOK {
		g.placements.forget(sid)
	}
	relay(w, status, respBody)
}

// bodyErrCode maps a buffered-read error to a status: 413 when the
// proxy body cap tripped, 400 otherwise.
func bodyErrCode(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// MatchResult is the gateway's scatter-gather response: the exact
// merged match list, plus degradation detail when one or more shards
// could not answer and their data is not covered by replicas.
type MatchResult struct {
	Matches []server.RemoteMatch `json:"matches"`
	// Profile is present only for ?debug=profile requests: the merged
	// cross-service span tree — gateway root, one scatter leg per
	// shard, and each shard's handler + matcher funnel spans grafted
	// under its leg.
	Profile *obs.Profile `json:"profile,omitempty"`
	// Degraded is true when at least one shard failed to answer AND
	// that shard's arcs are not all covered by an answering replica:
	// the matches then cover only the surviving data. With replication
	// factor R > 1 a single dead shard keeps Degraded false (and the
	// key absent) because every arc it owned is mirrored on a
	// successor that did answer.
	Degraded bool `json:"degraded,omitempty"`
	// ShardErrors details each failed shard (URL -> error).
	ShardErrors map[string]string `json:"shardErrors,omitempty"`
	// ShardsQueried / ShardsOK count the fan-out.
	ShardsQueried int `json:"shardsQueried"`
	ShardsOK      int `json:"shardsOk"`
}

// handleMatch answers a similarity query: a scatter to every healthy
// backend, merging the shard-local results into the global answer. The
// merge is exact: every shard scores candidates with identical Params
// and the query's own provenance, so ascending weighted distance is a
// total order the gateway can merge on; for k-NN queries each shard
// returns its local top-k and the merged top-k of those is the union's
// top-k. Every shard scans all it holds, so a replicated stream is
// scored by its primary and by each follower, and the merge drops the
// duplicates. A lagging follower's copy is a prefix of the primary's
// (closed windows never change), so its hits are a subset of the
// primary's and the merge is exact whatever the follower's lag.
//
// The public request and response are JSON; the legs are not. Every
// leg is the same message in the binary leg format of internal/wal,
// encoded once per query. Each shard answers with hits over a stream
// table, and a RemoteMatch exists only for a hit that survived the
// merge.
func (g *Gateway) handleMatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := readBody(w, r)
	if err != nil {
		gwError(w, bodyErrCode(err), fmt.Errorf("reading request: %w", err))
		return
	}
	req, err := server.DecodeMatchRequest(body)
	if err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("decoding match request: %w", err))
		return
	}
	// The leg encoding takes a sequence's shape on trust, so what a
	// shard would refuse is refused here, in the shard's words.
	if err := req.Validate(); err != nil {
		gwError(w, http.StatusBadRequest, err)
		return
	}
	// ?debug=profile asks each shard for its span tree inline and
	// merges them under this request's scatter legs.
	profile := r.URL.Query().Get("debug") == "profile"
	path := "/v1/match"
	if profile {
		path += "?debug=profile"
	}
	legBody := wal.AppendMatchLegRequest(nil, wal.MatchLegRequest{
		K: req.K, Now: req.Now, PatientID: req.PatientID, SessionID: req.SessionID, Seq: req.Seq})
	legs := scatter(g.pool, func(b *Backend) (wal.MatchLegReply, error) {
		return g.matchLeg(r.Context(), b, path, legBody)
	})

	res := MatchResult{ShardsQueried: len(legs), ShardErrors: map[string]string{}}
	answered := make(map[string]bool, len(legs))
	var merge hitMerger
	for i := range legs {
		leg := &legs[i]
		if leg.err != nil {
			res.ShardErrors[leg.backend.URL()] = leg.err.Error()
			continue
		}
		res.ShardsOK++
		answered[leg.backend.URL()] = true
		merge.addLeg(&leg.val)
		// The shard's handler root is parented on this gateway's attempt
		// span (it continued our traceparent), so grafting its flattened
		// spans into the trace reassembles one tree.
		if p := leg.val.Profile; len(p) > 0 {
			var tree obs.Profile
			if json.Unmarshal(p, &tree) == nil && tree.Root != nil {
				obs.AddExternalSpans(r.Context(), tree.Root.Flatten())
			}
		}
	}
	if res.ShardsOK == 0 {
		g.met.scatter.Observe(time.Since(start).Seconds())
		gwJSON(w, http.StatusBadGateway, map[string]any{
			"error":       "all shards failed",
			"shardErrors": res.ShardErrors,
		})
		return
	}
	res.Matches = merge.merged(req.K)
	// A failed shard only degrades the result if some arc it owns has
	// no answering replica; the coverage test is against the shards
	// that actually answered this query, not nominal health.
	for failed := range res.ShardErrors {
		if !g.placements.covered(failed, answered) {
			res.Degraded = true
			break
		}
	}
	if len(res.ShardErrors) == 0 {
		res.ShardErrors = nil
	}
	if res.Degraded {
		g.met.degraded.Inc()
	}
	if profile {
		if id, spans := obs.SnapshotTrace(r.Context()); id != "" {
			res.Profile = &obs.Profile{TraceID: id, Root: obs.BuildTree(spans)}
		}
	}
	g.met.scatter.Observe(time.Since(start).Seconds())
	writeMatchResult(w, res)
}

// writeMatchResult answers a scatter with the bytes json.Marshal gives
// res, appended by the shard's JSON appender unless a profile or a
// shard error rides along or a value needs encoding/json.
func writeMatchResult(w http.ResponseWriter, res MatchResult) {
	if res.Profile == nil && !res.Degraded && len(res.ShardErrors) == 0 {
		a := server.NewJSONAnswer()
		a.Raw("{")
		a.Matches(res.Matches)
		a.Raw(`,"shardsQueried":`)
		a.Int(res.ShardsQueried)
		a.Raw(`,"shardsOk":`)
		a.Int(res.ShardsOK)
		a.Raw("}")
		if a.Write(w, http.StatusOK) {
			return
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		gwError(w, http.StatusInternalServerError, err)
		return
	}
	relay(w, http.StatusOK, out)
}

// matchLeg asks one backend to score the query, body in the binary leg
// format. One span per leg; the leg's context flows into the pool,
// whose per-attempt spans (and the backend's own trace, via the
// propagated traceparent) nest underneath. A reply that does not decode
// is the leg's error like any other: the shard is reported, nothing is
// merged.
func (g *Gateway) matchLeg(ctx context.Context, b *Backend, path string, body []byte) (wal.MatchLegReply, error) {
	lctx, sp := obs.StartSpan(ctx, "scatter.leg")
	defer sp.Finish()
	sp.Annotate("backend", b.URL())
	status, respBody, _, err := g.pool.do(lctx, b, http.MethodPost, path, wal.MatchLegContentType, body, true)
	if err != nil {
		sp.Annotate("error", err.Error())
		return wal.MatchLegReply{}, err
	}
	sp.Annotate("status", status)
	if status != http.StatusOK {
		return wal.MatchLegReply{}, fmt.Errorf("status %d: %s", status, errDetail(respBody))
	}
	return wal.DecodeMatchLegReply(respBody)
}

// errDetail extracts the "error" field of a JSON error body, falling
// back to a truncated raw body.
func errDetail(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	const max = 200
	if len(body) > max {
		body = body[:max]
	}
	return string(body)
}

// GatewayStatsResponse aggregates the shards' database stats, summed
// over the inventory poll. Totals are physical: with replication factor
// R, replicated streams count once per holder. OpenSessions counts the
// sessions each shard serves as primary.
type GatewayStatsResponse struct {
	Patients     int               `json:"patients"`
	Streams      int               `json:"streams"`
	Vertices     int               `json:"vertices"`
	OpenSessions int               `json:"openSessions"`
	Shards       int               `json:"shards"`
	ShardsOK     int               `json:"shardsOk"`
	Degraded     bool              `json:"degraded"`
	ShardErrors  map[string]string `json:"shardErrors,omitempty"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	invs := g.inventories(r.Context())
	res := GatewayStatsResponse{Shards: len(invs), ShardErrors: map[string]string{}}
	for _, inv := range invs {
		if inv.err != nil {
			res.ShardErrors[inv.backend.URL()] = inv.err.Error()
			continue
		}
		res.ShardsOK++
		res.Patients += inv.val.Patients
		res.Streams += inv.val.Streams
		res.Vertices += inv.val.Vertices
		res.OpenSessions += len(inv.val.Sessions)
	}
	res.Degraded = len(res.ShardErrors) > 0
	if !res.Degraded {
		res.ShardErrors = nil
	}
	gwJSON(w, http.StatusOK, res)
}

// BackendHealth is one backend's state in the gateway healthz payload.
type BackendHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// GatewayHealthResponse is the gateway liveness payload, aggregating
// backend health as seen by the active checker.
type GatewayHealthResponse struct {
	Status        string          `json:"status"` // ok | degraded
	Version       string          `json:"version"`
	GoVersion     string          `json:"goVersion"`
	UptimeSeconds float64         `json:"uptimeSeconds"`
	Backends      []BackendHealth `json:"backends"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, goVersion := obs.BuildInfo()
	res := GatewayHealthResponse{
		Status:        "ok",
		Version:       version,
		GoVersion:     goVersion,
		UptimeSeconds: time.Since(g.start).Seconds(),
	}
	for _, b := range g.pool.Backends() {
		h := b.Healthy()
		if !h {
			res.Status = "degraded"
		}
		res.Backends = append(res.Backends, BackendHealth{URL: b.URL(), Healthy: h})
	}
	gwJSON(w, http.StatusOK, res)
}
