package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	"stsmatch/internal/wal"
)

// Gateway fronts N streamd backends. Session-scoped traffic (create,
// ingest, predict, PLR, close) is routed to the shard owning the
// session's patient on the consistent-hash ring; similarity queries
// scatter to every backend and gather into an exact merged result.
//
// With replication factor R > 1 each session is placed on the first R
// distinct backends clockwise from the patient's hash: the primary
// serves traffic and streams its WAL to the successors. When the
// health checker ejects a primary, the gateway promotes the first
// healthy replica (POST /v1/sessions/{sid}/promote) and re-routes the
// session there; scatter queries stay complete — not degraded — as
// long as every dead shard's arcs are covered by an answering
// replica.
type Gateway struct {
	ring    *Ring
	pool    *Pool
	opts    Options
	mux     *http.ServeMux
	handler http.Handler
	log     *slog.Logger
	met     *shardMetrics
	http    *obs.HTTPMetrics
	col     *obs.Collector
	start   time.Time

	// mu guards places and every placement's fields. places maps open
	// session IDs to their primary + replica set; it is populated on
	// create and lazily rebuilt from the shards' /v1/shard/stats
	// inventories after a gateway restart.
	mu     sync.Mutex
	places map[string]*placement

	// subPlaces maps subscription IDs to the scope they were registered
	// under (guarded by mu); the scope — not the backend — is
	// authoritative, so event streams re-resolve through session
	// failover or the ring on every (re)connect.
	subPlaces map[string]*subPlacement

	// promoteMu serializes failovers so concurrent requests against a
	// dead primary elect exactly one replacement.
	promoteMu sync.Mutex
}

// placement records where a session lives: the backend currently
// serving it and the full owner set (primary first) chosen by the
// ring at create time.
type placement struct {
	patientID string
	primary   string
	owners    []string
}

// NewGateway builds a gateway over the given backend base URLs.
func NewGateway(backends []string, opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	pool, err := NewPool(backends, opts)
	if err != nil {
		return nil, err
	}
	ring := NewRing(opts.Vnodes)
	for _, b := range backends {
		ring.Add(b)
	}
	g := &Gateway{
		ring:      ring,
		pool:      pool,
		opts:      opts,
		mux:       http.NewServeMux(),
		log:       obs.Logger("gateway"),
		met:       pool.met,
		http:      obs.NewHTTPMetrics(obs.Default(), "stsmatch_gateway"),
		col:       obs.NewCollector(opts.TraceCapacity, opts.TraceSlowThreshold),
		start:     time.Now(),
		places:    make(map[string]*placement),
		subPlaces: make(map[string]*subPlacement),
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

// inventory is one backend's /v1/shard/stats answer.
type inventory struct {
	url   string
	stats server.ShardStatsResponse
}

// inventories polls /v1/shard/stats on every healthy backend of one
// Backends() snapshot and returns the answers that arrived, in backend
// order: what placement rediscovery and the rebalance diff read.
func (g *Gateway) inventories(ctx context.Context) []inventory {
	backends := g.pool.Backends()
	polled := make([]*inventory, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		if !b.Healthy() {
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			status, body, _, err := g.pool.do(ctx, b, http.MethodGet, "/v1/shard/stats", "", nil, true)
			if err != nil || status != http.StatusOK {
				return
			}
			inv := &inventory{url: b.URL()}
			if json.Unmarshal(body, &inv.stats) == nil {
				polled[i] = inv
			}
		}(i, b)
	}
	wg.Wait()
	invs := make([]inventory, 0, len(polled))
	for _, inv := range polled {
		if inv != nil {
			invs = append(invs, *inv)
		}
	}
	return invs
}

// Pool exposes the gateway's backend pool (health introspection).
func (g *Gateway) Pool() *Pool { return g.pool }

// SessionPlacement reports where the gateway believes a session lives:
// the backend currently serving it and the full owner set (primary
// first). ok is false when the session is unknown to this gateway.
func (g *Gateway) SessionPlacement(sid string) (primary string, owners []string, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pl, ok := g.places[sid]
	if !ok {
		return "", nil, false
	}
	return pl.primary, append([]string(nil), pl.owners...), true
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
	return io.ReadAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes))
}

// relay forwards a backend response verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck
}

// handleCreateSession places a session on the ring: the first R
// distinct owners clockwise from the patient's hash, with the first
// healthy owner as primary and the rest injected into the create
// request as replication targets, so the chosen shard streams its WAL
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
	owners := g.ring.Owners(req.PatientID, g.opts.Replicas)
	if len(owners) == 0 {
		gwError(w, http.StatusServiceUnavailable, errors.New("no backends configured"))
		return
	}
	// The ring's first owner is the natural primary, but any healthy
	// owner can take the role at create time — there is no data to
	// hand over yet.
	var primary *Backend
	for _, u := range owners {
		if b := g.pool.ByURL(u); b != nil && b.Healthy() {
			primary = b
			break
		}
	}
	if primary == nil {
		gwError(w, http.StatusServiceUnavailable,
			fmt.Errorf("no healthy owner for patient %s (owners %v)", req.PatientID, owners))
		return
	}
	req.Replicate = req.Replicate[:0]
	for _, u := range owners {
		if u != primary.URL() {
			req.Replicate = append(req.Replicate, u)
		}
	}
	fwd, err := json.Marshal(req)
	if err != nil {
		gwError(w, http.StatusInternalServerError, err)
		return
	}
	status, respBody, _, err := g.pool.do(r.Context(), primary, http.MethodPost, "/v1/sessions", "application/json", fwd, false)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusCreated {
		g.mu.Lock()
		g.places[req.SessionID] = &placement{
			patientID: req.PatientID,
			primary:   primary.URL(),
			owners:    owners,
		}
		g.mu.Unlock()
		g.met.routed.With(primary.URL()).Inc()
		g.log.Info("session routed",
			slog.String("patientId", req.PatientID),
			slog.String("sessionId", req.SessionID),
			slog.String("backend", primary.URL()),
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
	b, pl, err := g.serving(r.Context(), sid)
	if err != nil {
		code := http.StatusServiceUnavailable
		if pl == nil {
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
		// The session migrated away: the placement cache pointed at a
		// tombstoned source. Invalidate, follow the redirect hint (or
		// rediscover from the shards' inventories), and retry exactly
		// once on the new owner — converging without bouncing the
		// client.
		if nb := g.placementAfterGone(r, sid, pl, respHdr); nb != nil && nb.URL() != b.URL() {
			b = nb
			status, respBody, respHdr, err = g.pool.do(r.Context(), b, r.Method, path, "application/json", body, idempotent)
			if err != nil {
				gwError(w, http.StatusBadGateway, err)
				return
			}
		}
	}
	if r.Method == http.MethodDelete && status == http.StatusOK {
		g.mu.Lock()
		delete(g.places, sid)
		g.mu.Unlock()
	}
	relay(w, status, respBody)
}

// placementAfterGone repairs a session's cached placement after a 410
// tombstone response: the Location header names the new owner when the
// source knew it; otherwise the stale entry is dropped and rebuilt
// from the shards' inventories. Returns the backend to retry on, or
// nil when no new owner could be resolved.
func (g *Gateway) placementAfterGone(r *http.Request, sid string, pl *placement, respHdr http.Header) *Backend {
	g.met.placementInvalidations.Inc()
	if hint := respHdr.Get("Location"); hint != "" {
		if nb := g.pool.ByURL(hint); nb != nil && nb.Healthy() {
			g.mu.Lock()
			pl.primary = hint
			if pid := pl.patientID; pid != "" {
				if desired := g.ring.Owners(pid, g.opts.Replicas); len(desired) > 0 {
					pl.owners = append([]string(nil), desired...)
				}
			}
			if !slices.Contains(pl.owners, hint) {
				pl.owners = append([]string{hint}, pl.owners...)
			}
			g.mu.Unlock()
			g.log.Info("placement repaired from tombstone hint",
				slog.String("sessionId", sid), slog.String("backend", hint))
			return nb
		}
	}
	g.mu.Lock()
	delete(g.places, sid)
	g.mu.Unlock()
	nb, _, _ := g.serving(r.Context(), sid)
	return nb
}

// primaryBackend returns the backend currently serving a session, or
// nil when it is unknown or unhealthy.
func (g *Gateway) primaryBackend(pl *placement) *Backend {
	g.mu.Lock()
	u := pl.primary
	g.mu.Unlock()
	if u == "" {
		return nil
	}
	if b := g.pool.ByURL(u); b != nil && b.Healthy() {
		return b
	}
	return nil
}

// failover promotes the first healthy replica of a session to primary
// and re-points the placement at it. Serialized per gateway so
// concurrent requests against a dead primary elect one replacement;
// later waiters observe the updated placement and return immediately.
func (g *Gateway) failover(ctx context.Context, sid string, pl *placement) (*Backend, error) {
	g.promoteMu.Lock()
	defer g.promoteMu.Unlock()
	if b := g.primaryBackend(pl); b != nil {
		return b, nil // raced with another request's failover
	}
	g.mu.Lock()
	old := pl.primary
	owners := append([]string(nil), pl.owners...)
	g.mu.Unlock()
	lastErr := fmt.Errorf("no healthy replica among owners %v", owners)
	for _, cand := range owners {
		if cand == old {
			continue
		}
		b := g.pool.ByURL(cand)
		if b == nil || !b.Healthy() {
			continue
		}
		// The dead primary is dropped from the new replica set: if it
		// comes back it still holds the old epoch and would fence the
		// shipments anyway.
		rest := make([]string, 0, len(owners))
		for _, u := range owners {
			if u != cand && u != old {
				rest = append(rest, u)
			}
		}
		body, err := json.Marshal(server.PromoteRequest{Replicate: rest})
		if err != nil {
			return nil, err
		}
		status, respBody, _, err := g.pool.do(ctx, b,
			http.MethodPost, "/v1/sessions/"+url.PathEscape(sid)+"/promote", "application/json", body, false)
		if err != nil {
			lastErr = err
			continue
		}
		if status != http.StatusOK {
			lastErr = fmt.Errorf("promote on %s: status %d: %s", cand, status, errDetail(respBody))
			continue
		}
		g.mu.Lock()
		pl.primary = cand
		g.mu.Unlock()
		g.met.failovers.Inc()
		g.log.Warn("session failed over",
			slog.String("sessionId", sid),
			slog.String("from", old),
			slog.String("to", cand))
		return b, nil
	}
	return nil, lastErr
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

// serving resolves who serves a session: its placement (the table, or
// after a gateway restart the shards' inventories), then its healthy
// primary, else the replica a failover promotes. Every session-addressed
// path — proxied requests, subscription routing, the rebalance drain —
// asks here. A nil placement with the error means the session is
// unknown; a non-nil one means nothing healthy holds it.
func (g *Gateway) serving(ctx context.Context, sid string) (*Backend, *placement, error) {
	g.mu.Lock()
	pl, ok := g.places[sid]
	g.mu.Unlock()
	if !ok {
		g.discoverPlacements(ctx, sid)
		g.mu.Lock()
		pl, ok = g.places[sid]
		g.mu.Unlock()
		if !ok {
			return nil, nil, fmt.Errorf("no open session %q on any reachable shard", sid)
		}
	}
	if b := g.primaryBackend(pl); b != nil {
		return b, pl, nil
	}
	b, err := g.failover(ctx, sid, pl)
	if err != nil {
		return nil, pl, fmt.Errorf("session %s: primary down and no replica promoted: %w", sid, err)
	}
	return b, pl, nil
}

// discoverPlacements folds the healthy shards' session inventories into
// the placement table — for one session, or for all of them when only
// is "" — so routing after a gateway restart and the rebalance diff
// both start from where sessions ACTUALLY live. A Sessions claim names
// the primary, a Replicas claim a follower; a session whose only
// survivors are followers gets a placement with no primary, which the
// first caller of serving fails over. The table stays authoritative
// (it is updated synchronously on create/migrate/failover): only
// unknown sessions are added, and a missing primary is filled.
func (g *Gateway) discoverPlacements(ctx context.Context, only string) {
	found := make(map[string]*placement)
	claim := func(e server.ShardSession) *placement {
		if only != "" && e.SessionID != only {
			return nil
		}
		pl := found[e.SessionID]
		if pl == nil {
			pl = &placement{patientID: e.PatientID}
			found[e.SessionID] = pl
		}
		return pl
	}
	for _, inv := range g.inventories(ctx) {
		for _, e := range inv.stats.Sessions {
			if pl := claim(e); pl != nil && pl.primary == "" {
				pl.primary = inv.url
				pl.owners = append([]string{inv.url}, pl.owners...)
			}
		}
		for _, e := range inv.stats.Replicas {
			if pl := claim(e); pl != nil {
				pl.owners = append(pl.owners, inv.url)
			}
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for sid, pl := range found {
		cur, ok := g.places[sid]
		switch {
		case !ok:
			g.places[sid] = pl
		case cur.primary == "" && pl.primary != "":
			cur.primary = pl.primary
			if !slices.Contains(cur.owners, pl.primary) {
				cur.owners = append([]string{pl.primary}, cur.owners...)
			}
		}
	}
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
// primary's and the merge is exact whatever the follower's lag; a
// client's max-lag is therefore validated and always met.
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
	// ?max-lag= overrides the body knob; either is only validated.
	if v := r.URL.Query().Get("max-lag"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			gwError(w, http.StatusBadRequest, fmt.Errorf("invalid max-lag %q", v))
			return
		}
		req.MaxLag = n
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
	backends := g.pool.Backends()
	legs := make([]legResult, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		if !b.Healthy() {
			legs[i].err = errors.New("unhealthy (ejected)")
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			legs[i] = g.matchLeg(r.Context(), b, path, legBody)
		}(i, b)
	}
	wg.Wait()

	res := MatchResult{ShardsQueried: len(backends), ShardErrors: map[string]string{}}
	answered := make(map[string]bool, len(backends))
	var merge hitMerger
	for i, b := range backends {
		if legs[i].err != nil {
			res.ShardErrors[b.URL()] = legs[i].err.Error()
			continue
		}
		res.ShardsOK++
		answered[b.URL()] = true
		merge.addLeg(&legs[i].reply)
		// The shard's handler root is parented on this gateway's attempt
		// span (it continued our traceparent), so grafting its flattened
		// spans into the trace reassembles one tree.
		if p := legs[i].reply.Profile; len(p) > 0 {
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
		if !g.ring.Covered(failed, g.opts.Replicas, func(u string) bool { return answered[u] }) {
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

// legResult is what one match leg brought back: the decoded reply, or
// why there is none.
type legResult struct {
	reply wal.MatchLegReply
	err   error
}

// matchLeg asks one backend to score the query, body in the binary leg
// format. One span per leg; the leg's context flows into the pool,
// whose per-attempt spans (and the backend's own trace, via the
// propagated traceparent) nest underneath. A reply that does not decode
// is the leg's error like any other: the shard is reported, nothing is
// merged.
func (g *Gateway) matchLeg(ctx context.Context, b *Backend, path string, body []byte) legResult {
	lctx, sp := obs.StartSpan(ctx, "scatter.leg")
	defer sp.Finish()
	sp.Annotate("backend", b.URL())
	status, respBody, _, err := g.pool.do(lctx, b, http.MethodPost, path, wal.MatchLegContentType, body, true)
	if err != nil {
		sp.Annotate("error", err.Error())
		return legResult{err: err}
	}
	sp.Annotate("status", status)
	if status != http.StatusOK {
		return legResult{err: fmt.Errorf("status %d: %s", status, errDetail(respBody))}
	}
	reply, err := wal.DecodeMatchLegReply(respBody)
	return legResult{reply: reply, err: err}
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

// GatewayStatsResponse aggregates the shards' database stats. Totals
// are physical: with replication factor R, replicated streams count
// once per holder.
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
	backends := g.pool.Backends()
	type leg struct {
		stats server.StatsResponse
		err   error
	}
	legs := make([]leg, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		if !b.Healthy() {
			legs[i].err = errors.New("unhealthy (ejected)")
			continue
		}
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			status, body, _, err := g.pool.do(r.Context(), b, http.MethodGet, "/v1/stats", "", nil, true)
			switch {
			case err != nil:
				legs[i].err = err
			case status != http.StatusOK:
				legs[i].err = fmt.Errorf("status %d: %s", status, errDetail(body))
			default:
				legs[i].err = json.Unmarshal(body, &legs[i].stats)
			}
		}(i, b)
	}
	wg.Wait()
	res := GatewayStatsResponse{Shards: len(backends), ShardErrors: map[string]string{}}
	for i, b := range backends {
		if legs[i].err != nil {
			res.ShardErrors[b.URL()] = legs[i].err.Error()
			continue
		}
		res.ShardsOK++
		res.Patients += legs[i].stats.Patients
		res.Streams += legs[i].stats.Streams
		res.Vertices += legs[i].stats.Vertices
		res.OpenSessions += legs[i].stats.OpenSessions
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
	HealthyCount  int             `json:"healthyCount"`
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
		if h {
			res.HealthyCount++
		} else {
			res.Status = "degraded"
		}
		res.Backends = append(res.Backends, BackendHealth{URL: b.URL(), Healthy: h})
	}
	gwJSON(w, http.StatusOK, res)
}
