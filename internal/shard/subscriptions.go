// Gateway routing for standing subscriptions. A scoped subscription
// lives on one shard — the primary serving its session, or the ring
// owner of its patient — and the gateway remembers that placement so
// deletes and event streams find it again. The event stream is a
// streaming SSE proxy: the gateway relays the shard's stream byte for
// byte, tracks the last event ID it forwarded, and on an upstream
// failure re-resolves the placement (promoting a replica if the
// primary died) and reconnects with Last-Event-ID, so a consumer
// keeps one uninterrupted stream across a failover. A long-poll is
// relayed as one request to the same shard.

package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	"stsmatch/internal/subscribe"
)

// subReconnects bounds how many times the event proxy re-resolves and
// reconnects after an upstream failure before giving up.
const subReconnects = 5

// handleCreateSubscription routes a scoped registration to the owning
// shard: the primary currently serving the session, or the first
// healthy ring owner of the patient. Unscoped subscriptions have no
// single owner under sharding and are rejected — register them on a
// shard directly.
func (g *Gateway) handleCreateSubscription(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		gwError(w, bodyErrCode(err), fmt.Errorf("reading request: %w", err))
		return
	}
	var req server.SubscriptionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("decoding subscription: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		gwError(w, http.StatusBadRequest, err)
		return
	}
	if req.PatientID == "" && req.SessionID == "" {
		gwError(w, http.StatusBadRequest,
			errors.New("sharded subscriptions need a patientId or sessionId scope"))
		return
	}
	b, err := g.subBackend(r, req.PatientID, req.SessionID)
	if err != nil {
		gwError(w, http.StatusServiceUnavailable, err)
		return
	}
	status, respBody, _, err := g.pool.do(r.Context(), b, http.MethodPost, "/v1/subscriptions", "application/json", body, false)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusCreated {
		var resp server.SubscriptionResponse
		if json.Unmarshal(respBody, &resp) == nil && resp.ID != "" {
			g.placements.subscribed(resp.ID, req.PatientID, req.SessionID)
		}
	}
	relay(w, status, respBody)
}

// subBackend resolves the shard owning a subscription scope. Session
// scope follows the live session (including failover to a promoted
// replica); patient scope takes the first healthy ring owner.
func (g *Gateway) subBackend(r *http.Request, patientID, sessionID string) (*Backend, error) {
	if sessionID != "" {
		b, _, err := g.serving(r.Context(), sessionID)
		return b, err
	}
	u, _, err := g.placements.firstHealthy(patientID, g.healthy)
	return g.pool.ByURL(u), err
}

// GatewaySubsResponse is the merged subscription inventory.
type GatewaySubsResponse struct {
	Subscriptions []subscribe.Status `json:"subscriptions"`
	ShardErrors   map[string]string  `json:"shardErrors,omitempty"`
}

// handleListSubscriptions scatters the list to every healthy shard and
// merges. A replicated subscription is armed on followers too; the
// copy with the highest delivered/eval progress wins the dedupe so the
// listing reflects the serving primary.
func (g *Gateway) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	legs := scatter(g.pool, getJSON[GatewaySubsResponse](r.Context(), g.pool, "/v1/subscriptions"))
	res := GatewaySubsResponse{Subscriptions: []subscribe.Status{}, ShardErrors: map[string]string{}}
	byID := make(map[string]int)
	for _, leg := range legs {
		if leg.err != nil {
			res.ShardErrors[leg.backend.URL()] = leg.err.Error()
			continue
		}
		for _, st := range leg.val.Subscriptions {
			if j, dup := byID[st.ID]; dup {
				if st.Sent > res.Subscriptions[j].Sent || st.Evals > res.Subscriptions[j].Evals {
					res.Subscriptions[j] = st
				}
				continue
			}
			byID[st.ID] = len(res.Subscriptions)
			res.Subscriptions = append(res.Subscriptions, st)
		}
	}
	sort.Slice(res.Subscriptions, func(a, b int) bool {
		return res.Subscriptions[a].ID < res.Subscriptions[b].ID
	})
	if len(res.ShardErrors) == 0 {
		res.ShardErrors = nil
	}
	gwJSON(w, http.StatusOK, res)
}

// handleDeleteSubscription routes a delete to the owning shard when
// the placement is known, and otherwise scatters it (e.g. after a
// gateway restart): any shard acknowledging the delete — primary or
// follower — journals it, and replication converges the rest.
func (g *Gateway) handleDeleteSubscription(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path := "/v1/subscriptions/" + url.PathEscape(id)
	if pid, sid, ok := g.placements.subscription(id, true); ok {
		if b, err := g.subBackend(r, pid, sid); err == nil {
			status, body, _, err := g.pool.do(r.Context(), b, http.MethodDelete, path, "", nil, false)
			if err == nil && status != http.StatusNotFound {
				relay(w, status, body)
				return
			}
		}
	}
	// Unknown or stale placement: scatter. Delete is idempotent on each
	// shard, so hitting followers too is safe.
	legs := scatter(g.pool, func(b *Backend) ([]byte, error) {
		status, body, _, err := g.pool.do(r.Context(), b, http.MethodDelete, path, "", nil, false)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return body, err
	})
	for _, leg := range legs {
		if leg.err == nil {
			relay(w, http.StatusOK, leg.val)
			return
		}
	}
	relay(w, http.StatusNotFound, []byte(`{"error":"subscription not found on any reachable shard"}`))
}

// handleSubEvents proxies a subscription's SSE stream from the owning
// shard, reconnecting through placement re-resolution (and session
// failover) when the upstream drops, resuming from the last event ID
// it forwarded so the consumer sees no duplicates and no gaps. A
// long-poll (?mode=poll) is relayed as one request instead.
func (g *Gateway) handleSubEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("mode") == "poll" {
		g.relaySubPoll(w, r, id)
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		gwError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after")
	}
	started := false
	for attempt := 0; attempt <= subReconnects; attempt++ {
		if attempt > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(g.pool.backoff(attempt)):
			}
		}
		b, err := g.subEventsBackend(r, id)
		if err != nil {
			if !started {
				gwError(w, http.StatusServiceUnavailable, err)
				return
			}
			continue
		}
		resp, err := g.openSubEvents(r, b, id, lastID, false)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			if !started {
				// Relay the shard's error verbatim (404, 400, ...).
				buf := make([]byte, 4096)
				n, _ := resp.Body.Read(buf)
				resp.Body.Close()
				relay(w, resp.StatusCode, buf[:n])
				return
			}
			resp.Body.Close()
			continue
		}
		if !started {
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-cache")
			h.Set("X-Accel-Buffering", "no")
			obs.InjectHeaders(r.Context(), h)
			w.WriteHeader(http.StatusOK)
			fl.Flush()
			started = true
		}
		clientGone := g.relaySSE(w, fl, resp, &lastID)
		resp.Body.Close()
		if clientGone || r.Context().Err() != nil {
			return
		}
		attempt = 0 // upstream died but the client is still here: retry fresh
	}
}

// subEventsBackend finds the shard holding a subscription: known
// placement first, then a scatter over the shard listings.
func (g *Gateway) subEventsBackend(r *http.Request, id string) (*Backend, error) {
	if pid, sid, ok := g.placements.subscription(id, false); ok {
		return g.subBackend(r, pid, sid)
	}
	for _, leg := range scatter(g.pool, getJSON[GatewaySubsResponse](r.Context(), g.pool, "/v1/subscriptions")) {
		for _, st := range leg.val.Subscriptions {
			if st.ID == id {
				g.placements.subscribed(id, st.PatientID, st.SessionID)
				return g.subBackend(r, st.PatientID, st.SessionID)
			}
		}
	}
	return nil, fmt.Errorf("no subscription %q on any reachable shard", id)
}

// relaySubPoll answers a long-poll with one request to the shard
// holding the subscription: the client's query (after, wait) and
// Last-Event-ID go as sent, and the shard's status and body come back.
// The request is bounded by the client's context, not the per-attempt
// timeout, so a wait longer than that still gets the shard's answer.
func (g *Gateway) relaySubPoll(w http.ResponseWriter, r *http.Request, id string) {
	b, err := g.subEventsBackend(r, id)
	if err != nil {
		gwError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp, err := g.openSubEvents(r, b, id, r.Header.Get("Last-Event-ID"), true)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	body, err := readAll(resp.Body, resp.ContentLength)
	if err != nil {
		gwError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, resp.StatusCode, body)
}

// openSubEvents starts one upstream events request: the SSE stream, or
// with poll the client's long-poll. No per-attempt timeout: either lives
// as long as the client's request context.
func (g *Gateway) openSubEvents(r *http.Request, b *Backend, id, lastID string, poll bool) (*http.Response, error) {
	u := b.URL() + "/v1/subscriptions/" + url.PathEscape(id) + "/events"
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if poll {
		req.URL.RawQuery = r.URL.RawQuery
	} else {
		// An event stream stays on net/http: the frame carrier hands any
		// request that accepts text/event-stream to its HTTP transport.
		req.Header.Set("Accept", "text/event-stream")
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	obs.InjectHeaders(r.Context(), req.Header)
	resp, err := g.pool.rt.RoundTrip(req)
	if err != nil {
		g.pool.recordFailure(b)
		return nil, err
	}
	g.pool.recordSuccess(b)
	return resp, nil
}

// relaySSE copies the upstream event stream to the client line by
// line, flushing at event boundaries and tracking the last `id:` seen
// (the resume cursor for reconnects). Returns true when the client is
// gone (write failure) — the caller stops; false means the upstream
// ended and the caller may reconnect.
func (g *Gateway) relaySSE(w http.ResponseWriter, fl http.Flusher, resp *http.Response, lastID *string) bool {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id:"); ok {
			*lastID = strings.TrimSpace(v)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return true
		}
		if line == "" {
			fl.Flush()
		}
	}
	fl.Flush()
	return false
}
