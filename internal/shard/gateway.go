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
	"sort"
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

	// fresh tracks per-backend per-patient holdings for the follower-
	// read planner (see freshness.go).
	fresh *freshTracker

	// stopFresh/freshDone bound the optional background freshness
	// poller started when Options.FreshnessInterval > 0.
	stopFresh chan struct{}
	freshDone chan struct{}
	stopOnce  sync.Once
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
		fresh:     newFreshTracker(),
		stopFresh: make(chan struct{}),
		freshDone: make(chan struct{}),
	}
	obs.RegisterBuildInfo(obs.Default())
	if opts.FreshnessInterval > 0 {
		go g.freshLoop(opts.FreshnessInterval)
	} else {
		close(g.freshDone)
	}
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

// Close stops the pool's health checker and the freshness poller.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stopFresh) })
	<-g.freshDone
	g.pool.Close()
}

// freshLoop periodically refreshes the freshness tracker from the
// shards' stats inventories.
func (g *Gateway) freshLoop(interval time.Duration) {
	defer close(g.freshDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.stopFresh:
			return
		case <-t.C:
			g.RefreshFreshness(context.Background())
		}
	}
}

// inventory is one backend's /v1/shard/stats answer.
type inventory struct {
	url   string
	stats server.ShardStatsResponse
}

// inventories polls /v1/shard/stats on every healthy backend of one
// Backends() snapshot and returns the answers that arrived, in backend
// order: what placement rediscovery, the rebalance diff and the
// freshness poll all read.
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

// RefreshFreshness folds every healthy backend's per-patient holdings
// into the freshness tracker. The background poller calls this on a
// timer; tests call it directly for deterministic convergence.
func (g *Gateway) RefreshFreshness(ctx context.Context) {
	for _, inv := range g.inventories(ctx) {
		g.fresh.observeMap(inv.url, inv.stats.Freshness)
	}
}

// CreditFreshness raises the tracked holdings of a backend for a
// patient, never lowering a self-report — the same inference rule the
// replication piggyback uses. Exported for tests and operational
// pre-seeding; an over-credit is safe because a follower re-verifies
// its real holdings against every leg's bound and refuses when short.
func (g *Gateway) CreditFreshness(backend, pid string, fr server.PatientFreshness) {
	g.fresh.credit(backend, pid, fr)
}

// FreshnessView reports the gateway's tracked holdings of a backend
// for a patient (tests, debugging).
func (g *Gateway) FreshnessView(backend, pid string) (server.PatientFreshness, bool) {
	return g.fresh.holdings(backend, pid)
}

// Ring exposes the gateway's hash ring (read-only use).
func (g *Gateway) Ring() *Ring { return g.ring }

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

// relayFreshnessHeaders forwards the shard's piggybacked per-patient
// freshness headers to the client, so callers can observe their own
// write's high-water mark and replication state.
func relayFreshnessHeaders(w http.ResponseWriter, respHdr http.Header) {
	for _, h := range []string{server.HeaderPatientStreams, server.HeaderPatientVertices, server.HeaderReplicated} {
		if v := respHdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
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
	status, respBody, respHdr, err := g.pool.do(r.Context(), primary, http.MethodPost, "/v1/sessions", "application/json", fwd, false)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusCreated {
		g.noteIngestFreshness(primary.URL(), req.PatientID, owners, respHdr)
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
	relayFreshnessHeaders(w, respHdr)
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
	if status == http.StatusOK {
		g.mu.Lock()
		pid := pl.patientID
		owners := append([]string(nil), pl.owners...)
		g.mu.Unlock()
		g.noteIngestFreshness(b.URL(), pid, owners, respHdr)
	}
	if r.Method == http.MethodDelete && status == http.StatusOK {
		g.mu.Lock()
		delete(g.places, sid)
		g.mu.Unlock()
	}
	relayFreshnessHeaders(w, respHdr)
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

// noteIngestFreshness folds an ingest/create ack's piggybacked patient
// counts into the freshness tracker. The serving backend's report is
// authoritative (observe); a clean synchronous replication flush
// (X-Replicated: full) proves every follower holds at least the same
// data, so they are credited too — credit only raises, never lowers,
// so a later self-report corrects any over-estimate.
func (g *Gateway) noteIngestFreshness(backendURL, pid string, owners []string, hdr http.Header) {
	if pid == "" {
		return
	}
	streams, err1 := strconv.Atoi(hdr.Get(server.HeaderPatientStreams))
	vertices, err2 := strconv.Atoi(hdr.Get(server.HeaderPatientVertices))
	if err1 != nil || err2 != nil {
		return
	}
	fr := server.PatientFreshness{Streams: streams, Vertices: vertices}
	g.fresh.observe(backendURL, pid, fr)
	if hdr.Get(server.HeaderReplicated) != "full" {
		return
	}
	for _, u := range owners {
		if u != backendURL {
			g.fresh.credit(u, pid, fr)
		}
	}
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
	// PlannedPatients / FollowerServed count the read-path plan for
	// this query: how many patient arcs were pinned to a single holder
	// and how many of those holders were followers. Zero at max-lag 0
	// (the legacy everyone-scans-everything scatter).
	PlannedPatients int `json:"plannedPatients,omitempty"`
	FollowerServed  int `json:"followerServed,omitempty"`
	// UnservedPatients lists planned patients no holder could serve
	// within the query's max-lag bound even after retries; when
	// non-empty the result is Degraded.
	UnservedPatients []string `json:"unservedPatients,omitempty"`
}

// patientAssign is one planned patient's serving decision: the backend
// pinned to score it, its primary, the freshness bound a follower must
// re-verify (nil when the primary serves), and the ordered alternates
// for retry after a refusal or leg failure.
type patientAssign struct {
	backend string
	primary string
	require *server.PatientFreshness
	alts    []string
}

// planScatter pins each live patient to exactly one holder within the
// query's lag tolerance. maxLag <= 0 plans nothing: every shard scans
// all its local data and the merge deduplicates, exactly the
// pre-follower-read behaviour. With maxLag > 0 each planned patient is
// scored once — by a caught-up follower when that balances load —
// and every other leg excludes it, which is what turns R-way
// replication from duplicated scoring work into spread capacity.
//
// The plan is advisory: a follower pinned here re-verifies its real
// holdings against the Require bound and refuses when short, so a
// stale freshness tracker costs one retry leg, never a stale answer
// beyond the bound.
func (g *Gateway) planScatter(maxLag int) map[string]*patientAssign {
	if maxLag <= 0 {
		return nil
	}
	type place struct {
		primary  string
		owners   []string
		conflict bool
	}
	g.mu.Lock()
	pats := make(map[string]*place)
	for _, pl := range g.places {
		if cur, ok := pats[pl.patientID]; ok {
			// Two sessions of one patient disagreeing on their primary
			// (transient, mid-failover): leave the patient unplanned —
			// every holder scores it and the merge dedups.
			if cur.primary != pl.primary {
				cur.conflict = true
			}
			continue
		}
		pats[pl.patientID] = &place{primary: pl.primary, owners: append([]string(nil), pl.owners...)}
	}
	g.mu.Unlock()
	pids := make([]string, 0, len(pats))
	for pid := range pats {
		pids = append(pids, pid)
	}
	sort.Strings(pids)
	plan := make(map[string]*patientAssign)
	load := make(map[string]int)
	for _, pid := range pids {
		pp := pats[pid]
		if pp.conflict || pp.primary == "" {
			continue
		}
		if pb := g.pool.ByURL(pp.primary); pb == nil || !pb.Healthy() {
			// Dead primary: stay on the legacy path for this patient so
			// the surviving followers score their copies and the ring
			// coverage check decides degradation.
			continue
		}
		primHW, known := g.fresh.holdings(pp.primary, pid)
		pa := &patientAssign{primary: pp.primary}
		if !known {
			// No evidence about the primary's holdings yet: pin to the
			// primary (always exact) and learn from its piggyback.
			pa.backend = pp.primary
			plan[pid] = pa
			load[pp.primary]++
			continue
		}
		bound := server.PatientFreshness{Streams: primHW.Streams, Vertices: primHW.Vertices - maxLag}
		if bound.Vertices < 0 {
			bound.Vertices = 0
		}
		// Candidates: caught-up followers first so load ties shift reads
		// off primaries (which also carry ingest), then the primary.
		var cands []string
		for _, u := range pp.owners {
			if u == pp.primary {
				continue
			}
			fb := g.pool.ByURL(u)
			if fb == nil || !fb.Healthy() {
				continue
			}
			if fHW, ok := g.fresh.holdings(u, pid); ok &&
				fHW.Streams >= bound.Streams && fHW.Vertices >= bound.Vertices {
				cands = append(cands, u)
			}
		}
		cands = append(cands, pp.primary)
		best := cands[0]
		for _, u := range cands[1:] {
			if load[u] < load[best] {
				best = u
			}
		}
		pa.backend = best
		// The bound travels with the patient even when the primary
		// serves: if that leg fails mid-query, the retry can still fall
		// back to a bound-checked follower.
		pa.require = &bound
		if best != pp.primary {
			pa.alts = append(pa.alts, pp.primary)
		}
		for _, u := range cands {
			if u != best && u != pp.primary {
				pa.alts = append(pa.alts, u)
			}
		}
		plan[pid] = pa
		load[best]++
	}
	if len(plan) == 0 {
		return nil
	}
	return plan
}

// legScope scopes the query for one backend's scatter leg: the
// patients it is pinned to keep their Require bounds; every other
// planned patient is excluded. With no plan the leg is unscoped.
func legScope(q wal.MatchLegRequest, plan map[string]*patientAssign, backend string) wal.MatchLegRequest {
	for pid, pa := range plan {
		if pa.backend != backend {
			q.Exclude = append(q.Exclude, pid)
		} else if pa.require != nil {
			q.Require = append(q.Require, legBound(pid, *pa.require))
		}
	}
	sort.Strings(q.Exclude)
	return q
}

// legBound is a planned patient's freshness bound as a leg carries it.
func legBound(pid string, fr server.PatientFreshness) wal.LegFreshness {
	return wal.LegFreshness{PatientID: pid, Streams: uint64(fr.Streams), Vertices: uint64(fr.Vertices)}
}

// handleMatch answers a similarity query: a planned scatter to the
// backends, merging the shard-local results into the global answer.
// The merge is exact: every shard scores candidates with identical
// Params and the query's own provenance, so
// ascending weighted distance is a total order the gateway can merge
// on; for k-NN queries each shard returns its local top-k and the
// merged top-k of those is the union's top-k.
//
// At max-lag 0 (the default) every shard scans all its local data —
// replicated streams are scored on both their primary and their
// followers and the merge deduplicates, exactly the legacy behaviour.
// With maxLag > 0 the planner pins each live patient to one caught-up
// holder (preferring followers, so primaries shed read work) and every
// other leg's scope excludes that patient; a follower
// that cannot meet the leg's freshness bound refuses the patient and
// the gateway retries it on an alternate. The merged result is
// byte-identical across plans because the scope only changes which
// holder scores a copy, never what is scored.
//
// The public request and response are JSON; the legs are not. Each leg
// is one message in the binary leg format of internal/wal — the query
// and that leg's scope — and an unscoped leg (every leg at max-lag 0)
// sends the one scope-free encoding all of them share. Each shard
// answers with hits over a stream table, and a RemoteMatch exists only
// for a hit that survived the merge.
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
	// ?max-lag= overrides the body knob.
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
	// Every unscoped leg reuses the query's scope-free encoding verbatim.
	query := wal.MatchLegRequest{K: req.K, Now: req.Now, PatientID: req.PatientID, SessionID: req.SessionID, Seq: req.Seq}
	legBody := wal.AppendMatchLegRequest(nil, query)
	backends := g.pool.Backends()
	plan := g.planScatter(req.MaxLag)
	assigned := make(map[string][]string, len(backends))
	for pid, pa := range plan {
		assigned[pa.backend] = append(assigned[pa.backend], pid)
	}
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
			legs[i] = g.matchLeg(r.Context(), "scatter.leg", b, path,
				legScope(query, plan, b.URL()), legBody, len(assigned[b.URL()]))
		}(i, b)
	}
	wg.Wait()

	res := MatchResult{ShardsQueried: len(backends), ShardErrors: map[string]string{}}
	res.PlannedPatients = len(plan)
	answered := make(map[string]bool, len(backends))
	served := make(map[string]bool, len(plan))
	var needRetry []string
	var merge hitMerger
	for i, b := range backends {
		if legs[i].err != nil {
			res.ShardErrors[b.URL()] = legs[i].err.Error()
			// Planned patients were excluded from every other leg, so a
			// failed leg's assignments must be retried on an alternate.
			needRetry = append(needRetry, assigned[b.URL()]...)
			continue
		}
		res.ShardsOK++
		answered[b.URL()] = true
		needRetry = append(needRetry, legs[i].reply.Refused...)
		g.gatherLeg(r.Context(), b.URL(), &legs[i].reply, assigned[b.URL()], plan, served, &res, &merge)
	}
	if res.ShardsOK == 0 {
		g.met.scatter.Observe(time.Since(start).Seconds())
		gwJSON(w, http.StatusBadGateway, map[string]any{
			"error":       "all shards failed",
			"shardErrors": res.ShardErrors,
		})
		return
	}
	if len(needRetry) > 0 {
		g.retryScatter(r.Context(), path, query, plan, needRetry, served, &res, &merge)
	}
	for pid := range plan {
		if !served[pid] {
			res.UnservedPatients = append(res.UnservedPatients, pid)
		}
	}
	sort.Strings(res.UnservedPatients)
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
	if len(res.UnservedPatients) > 0 {
		res.Degraded = true
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
// res, appended by the shard's JSON appender unless a profile, a shard
// error or an unserved patient rides along or a value needs
// encoding/json.
func writeMatchResult(w http.ResponseWriter, res MatchResult) {
	if res.Profile == nil && !res.Degraded && len(res.ShardErrors) == 0 && len(res.UnservedPatients) == 0 {
		a := server.NewJSONAnswer()
		a.Raw("{")
		a.Matches(res.Matches)
		a.Raw(`,"shardsQueried":`)
		a.Int(res.ShardsQueried)
		a.Raw(`,"shardsOk":`)
		a.Int(res.ShardsOK)
		if res.PlannedPatients != 0 {
			a.Raw(`,"plannedPatients":`)
			a.Int(res.PlannedPatients)
		}
		if res.FollowerServed != 0 {
			a.Raw(`,"followerServed":`)
			a.Int(res.FollowerServed)
		}
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

// matchLeg asks one backend to score a scoped query — a scatter leg or
// a retry leg, named by span — in the binary leg format. An unscoped
// leg sends unscoped, the query's shared scope-free encoding; a scoped
// one is encoded here. One span per leg; the leg's context flows into
// the pool, whose per-attempt spans (and the backend's own trace, via
// the propagated traceparent) nest underneath. A reply that does not
// decode is the leg's error like any other: the shard is reported,
// nothing is merged.
func (g *Gateway) matchLeg(ctx context.Context, span string, b *Backend, path string,
	q wal.MatchLegRequest, unscoped []byte, pinned int) legResult {
	lctx, sp := obs.StartSpan(ctx, span)
	defer sp.Finish()
	sp.Annotate("backend", b.URL())
	body := unscoped
	if len(q.Only)+len(q.Exclude)+len(q.Require) > 0 {
		sp.Annotate("assigned", pinned)
		sp.Annotate("excluded", len(q.Exclude))
		body = wal.AppendMatchLegRequest(nil, q)
	}
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

// gatherLeg folds one answered leg into the query's state: the shard's
// freshness piggyback, its refusals, which of the patients pinned to it
// it served (and whether as a follower), its hits, and — for a profiled
// query — its span tree. The shard's handler root is parented on this
// gateway's attempt span (it continued our traceparent), so grafting
// the flattened spans into the trace reassembles one tree.
func (g *Gateway) gatherLeg(ctx context.Context, backend string, reply *wal.MatchLegReply, pinned []string,
	plan map[string]*patientAssign, served map[string]bool, res *MatchResult, merge *hitMerger) {
	if len(reply.Freshness) > 0 {
		fresh := make(map[string]server.PatientFreshness, len(reply.Freshness))
		for _, f := range reply.Freshness {
			fresh[f.PatientID] = server.PatientFreshness{Streams: int(f.Streams), Vertices: int(f.Vertices)}
		}
		g.fresh.observeMap(backend, fresh)
	}
	g.met.readRefusals.Add(len(reply.Refused))
	for _, pid := range pinned {
		if slices.Contains(reply.Refused, pid) {
			continue
		}
		served[pid] = true
		if backend != plan[pid].primary {
			res.FollowerServed++
			g.met.followerReads.Inc()
		}
	}
	merge.addLeg(reply)
	if len(reply.Profile) > 0 {
		var p obs.Profile
		if json.Unmarshal(reply.Profile, &p) == nil && p.Root != nil {
			obs.AddExternalSpans(ctx, p.Root.Flatten())
		}
	}
}

// retryScatter runs one recovery round for planned patients whose leg
// failed or refused them: each patient goes to its first healthy
// untried alternate (primary first), grouped so one extra request per
// backend covers all its retries. Patients with no viable alternate,
// or whose retry leg fails or refuses them again, are left unserved;
// the caller reports them and degrades the result.
func (g *Gateway) retryScatter(ctx context.Context, path string, query wal.MatchLegRequest,
	plan map[string]*patientAssign, needRetry []string, served map[string]bool,
	res *MatchResult, merge *hitMerger) {
	groups := make(map[string]*wal.MatchLegRequest)
	for _, pid := range needRetry {
		pa := plan[pid]
		for _, alt := range pa.alts {
			ab := g.pool.ByURL(alt)
			if ab == nil || !ab.Healthy() {
				continue
			}
			// A follower alternate still has to prove the freshness
			// bound; without one (the bound was never computed) only the
			// primary is exact.
			if alt != pa.primary && pa.require == nil {
				continue
			}
			q := groups[alt]
			if q == nil {
				c := query
				q = &c
				groups[alt] = q
			}
			q.Only = append(q.Only, pid)
			if alt != pa.primary {
				q.Require = append(q.Require, legBound(pid, *pa.require))
			}
			break
		}
	}
	targets := make([]string, 0, len(groups))
	for u := range groups {
		targets = append(targets, u)
	}
	sort.Strings(targets)
	legs := make([]legResult, len(targets))
	var wg sync.WaitGroup
	for i, u := range targets {
		q := groups[u]
		sort.Strings(q.Only)
		g.met.retryLegs.Inc()
		wg.Add(1)
		go func(i int, b *Backend, q wal.MatchLegRequest) {
			defer wg.Done()
			legs[i] = g.matchLeg(ctx, "scatter.retry", b, path, q, nil, len(q.Only))
		}(i, g.pool.ByURL(u), *q)
	}
	wg.Wait()
	for i, u := range targets {
		if legs[i].err == nil {
			g.gatherLeg(ctx, u, &legs[i].reply, groups[u].Only, plan, served, res, merge)
		}
	}
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
