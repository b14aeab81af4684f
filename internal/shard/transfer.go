// Session transfer, the gateway's half: every call that moves a session
// between shards. serving resolves who serves a session and failover
// promotes a follower of an ejected primary. Rebalance drains the
// sessions whose designated primary moved through the shards' migrate
// endpoint, diffing placement folded from the shards' inventories
// against the ring (placements.fold, then placements.diff), so a fresh
// or restarted gateway recomputes exactly the remainder.
package shard

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
)

// rebalanceAttempts is the per-session migrate retry budget within one
// Rebalance pass (each retry re-checks health and fails over first).
const rebalanceAttempts = 3

// MovedSession records one completed migration in a RebalanceReport.
type MovedSession struct {
	SessionID string `json:"sessionId"`
	PatientID string `json:"patientId"`
	From      string `json:"from"`
	To        string `json:"to"`
}

// RebalanceReport summarizes one rebalance pass.
type RebalanceReport struct {
	// Checked counts sessions whose placement was compared against the
	// ring; Skipped counts those already on their designated primary.
	Checked int `json:"checked"`
	Skipped int `json:"skipped"`
	// Moved lists completed migrations, sorted by session ID.
	Moved []MovedSession `json:"moved,omitempty"`
	// Failed maps session ID -> error for moves that exhausted their
	// retries; re-running the rebalance re-drives exactly these.
	Failed map[string]string `json:"failed,omitempty"`
}

// AddBackend grows the cluster: the backend joins the pool (health
// checking, scatter fan-out) and the ring (new arcs). Idempotent. It
// does not move any data — call Rebalance to drain the sessions whose
// arcs moved.
func (g *Gateway) AddBackend(url string) error {
	if _, err := g.pool.AddBackend(url); err != nil {
		return err
	}
	g.placements.join(url)
	return nil
}

// Rebalance drains every session whose ring-designated primary differs
// from where it actually lives, migrating each onto its new owner. Safe
// to re-run at any time: a no-op when placement already matches the
// ring, and the re-drive path after any crash.
func (g *Gateway) Rebalance(ctx context.Context) RebalanceReport {
	g.met.rebalances.Inc()
	g.placements.fold("", g.inventories(ctx))
	moves, checked := g.placements.diff()
	rep := RebalanceReport{Checked: checked, Skipped: checked - len(moves), Failed: map[string]string{}}

	errs := make([]error, len(moves))
	var wg sync.WaitGroup
	sem := make(chan struct{}, rebalanceConcurrency)
	for i, m := range moves {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = g.migrateSession(ctx, m.SessionID, m.To)
		}()
	}
	wg.Wait()
	for i, m := range moves {
		if errors.Is(errs[i], errClosed) {
			continue // nothing left to move: the placement is forgotten
		}
		if errs[i] != nil {
			rep.Failed[m.SessionID] = errs[i].Error()
			g.met.rebalanceFailures.Inc()
			g.log.Warn("rebalance: session move failed",
				slog.String("sessionId", m.SessionID), slog.Any("err", errs[i]))
			continue
		}
		rep.Moved = append(rep.Moved, m)
		g.met.rebalanceMoved.Inc()
	}
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	g.log.Info("rebalance finished",
		slog.Int("checked", rep.Checked),
		slog.Int("moved", len(rep.Moved)),
		slog.Int("failed", len(rep.Failed)))
	return rep
}

// errClosed is a move whose source answered 404: the session closed on
// the owner a tombstone named, and the move forgets it.
var errClosed = errors.New("session closed on its source")

// migrateSession moves one session onto target, retrying with
// backoff. A dead source is failed over onto a surviving replica first
// (the ordinary promote path), then the move re-drives from the new
// primary; a source that already handed the session over answers 410
// and the placement just catches up to the owner it names.
func (g *Gateway) migrateSession(ctx context.Context, sid, target string) error {
	ctx, sp := obs.StartSpan(ctx, "migrate")
	defer sp.Finish()
	sp.Annotate("sessionId", sid)
	sp.Annotate("target", target)
	var lastErr error
	for attempt := 0; attempt < rebalanceAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(g.pool.backoff(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		// A dead or unknown source is failed over first, so there is a
		// live primary to migrate from. The promoted replica holds every
		// acked vertex (replication is synchronous with the ack), so no
		// data is at risk; the move then re-drives.
		src, known, err := g.serving(ctx, sid)
		if !known {
			return err // closed since the diff was taken
		}
		if err != nil {
			lastErr = err
			continue
		}
		if src.URL() == target {
			// Failover (or a prior partially-observed attempt) already put
			// the session on its designated owner.
			g.placements.movedTo(sid, target)
			return nil
		}
		owner, err := g.callMigrate(ctx, src, sid, target)
		if errors.Is(err, errClosed) {
			g.placements.forget(sid)
			return err
		}
		if err != nil {
			lastErr = err
			continue
		}
		g.placements.movedTo(sid, owner)
		return nil
	}
	return lastErr
}

// callMigrate POSTs one migrate request to the session's source shard,
// under the budget of a full session drain, and returns the owner after
// it. The target's followers are placements.migrateFollowers'.
func (g *Gateway) callMigrate(ctx context.Context, src *Backend, sid, target string) (string, error) {
	body, err := json.Marshal(server.MigrateRequest{Target: target, Replicate: g.placements.migrateFollowers(sid, target)})
	if err != nil {
		return "", err
	}
	status, data, hdr, err := g.pool.once(ctx, src, http.MethodPost,
		"/v1/sessions/"+url.PathEscape(sid)+"/migrate", "application/json", body, g.opts.MigrateTimeout)
	if err != nil {
		return "", err
	}
	switch status {
	case http.StatusOK:
		return target, nil
	case http.StatusGone: // handed over already; the tombstone names the owner
		return cmp.Or(hdr.Get("Location"), target), nil
	case http.StatusNotFound:
		return "", errClosed
	default:
		return "", fmt.Errorf("migrate on %s: status %d: %s", src.URL(), status, errDetail(data))
	}
}

// serving resolves who serves a session: its placement (the table, or
// after a gateway restart the shards' inventories), then its healthy
// primary, else the replica a failover promotes. Every session-addressed
// path — proxied requests, subscription routing, the rebalance drain —
// asks here. known is false when no shard holds the session; with an
// error, a known session has nothing healthy to serve it.
//
// A session the table does not know, or knows with no primary, is
// folded from the inventories again before anything is failed over: a
// fold that read a transfer's target before its promote and its source
// after its commit saw only followers, and a read now finds the target
// serving.
func (g *Gateway) serving(ctx context.Context, sid string) (b *Backend, known bool, err error) {
	u, known := g.placements.resolve(sid, g.healthy)
	if u == "" {
		if primary, _, _, _ := g.placements.lookup(sid); primary == "" {
			g.placements.fold(sid, g.inventories(ctx))
			u, known = g.placements.resolve(sid, g.healthy)
		}
	}
	if !known {
		return nil, false, fmt.Errorf("no open session %q on any reachable shard", sid)
	}
	if u != "" {
		return g.pool.ByURL(u), true, nil
	}
	b, err = g.failover(ctx, sid)
	return b, true, err
}

// failover promotes the first of placements.candidates that accepts,
// and records it. Serialized per gateway, so concurrent requests against
// a dead primary elect one replacement and later waiters find it.
func (g *Gateway) failover(ctx context.Context, sid string) (*Backend, error) {
	g.promoteMu.Lock()
	defer g.promoteMu.Unlock()
	if u, _ := g.placements.resolve(sid, g.healthy); u != "" {
		return g.pool.ByURL(u), nil // raced with another request's failover
	}
	from, cands := g.placements.candidates(sid, g.healthy)
	lastErr := errors.New("no healthy owner left to promote")
	for _, c := range cands {
		body, err := json.Marshal(server.PromoteRequest{Replicate: c.replicate})
		if err != nil {
			return nil, err
		}
		b := g.pool.ByURL(c.to)
		status, respBody, _, err := g.pool.do(ctx, b,
			http.MethodPost, "/v1/sessions/"+url.PathEscape(sid)+"/promote", "application/json", body, false)
		if err != nil {
			lastErr = err
			continue
		}
		if status != http.StatusOK {
			lastErr = fmt.Errorf("promote on %s: status %d: %s", c.to, status, errDetail(respBody))
			continue
		}
		g.placements.failedOver(sid, from, c.to)
		g.met.failovers.Inc()
		g.log.Warn("session failed over",
			slog.String("sessionId", sid),
			slog.String("from", from),
			slog.String("to", c.to))
		return b, nil
	}
	return nil, fmt.Errorf("session %s: primary down and no replica promoted: %w", sid, lastErr)
}

// AddBackendRequest is the admin payload growing the cluster.
type AddBackendRequest struct {
	URL string `json:"url"`
}

// AddBackendResponse reports the grow + drain outcome.
type AddBackendResponse struct {
	Backends  []string        `json:"backends"`
	Rebalance RebalanceReport `json:"rebalance"`
}

// handleAddBackend (POST /v1/admin/backends) adds a backend and drains
// the sessions whose arcs moved onto it.
func (g *Gateway) handleAddBackend(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		gwError(w, bodyErrCode(err), fmt.Errorf("reading request: %w", err))
		return
	}
	var req AddBackendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		gwError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	req.URL = strings.TrimRight(req.URL, "/")
	if req.URL == "" {
		gwError(w, http.StatusBadRequest, errors.New("url is required"))
		return
	}
	if err := g.AddBackend(req.URL); err != nil {
		gwError(w, http.StatusBadRequest, err)
		return
	}
	rep := g.Rebalance(r.Context())
	urls := make([]string, 0)
	for _, b := range g.pool.Backends() {
		urls = append(urls, b.URL())
	}
	gwJSON(w, http.StatusOK, AddBackendResponse{Backends: urls, Rebalance: rep})
}

// handleRebalance (POST /v1/admin/rebalance) re-drives the drain: a
// no-op when placement matches the ring, the recovery path after a
// crash anywhere mid-drain.
func (g *Gateway) handleRebalance(w http.ResponseWriter, r *http.Request) {
	gwJSON(w, http.StatusOK, g.Rebalance(r.Context()))
}
