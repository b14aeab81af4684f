// Elastic rebalancing: when the backend set changes, the gateway drains
// the sessions whose designated primary moved onto their new owners
// through the shards' live-migration endpoint (POST
// /v1/sessions/{sid}/migrate), with bounded concurrency and per-session
// retry/backoff. The drain diffs actual placement, folded from the
// shards' own inventories, against the ring (placements.fold, then
// placements.diff) rather than journaling planned moves, so a fresh or
// restarted gateway recomputes exactly the remainder: committed moves
// answer from their new primary (or via the source's 410) and drop out,
// interrupted ones re-drive through the migrate endpoint's idempotent
// path, and a dead source fails over onto a surviving replica first.
package shard

import (
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

// migrateSession moves one session onto target, retrying with
// backoff. A dead source is failed over onto a surviving replica first
// (the ordinary promote path), then the move re-drives from the new
// primary; a source that already committed the migration answers
// AlreadyMigrated and the placement just catches up.
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
		resp, err := g.callMigrate(ctx, src, sid, target)
		if err != nil {
			lastErr = err
			continue
		}
		sp.Annotate("epoch", resp.Epoch)
		g.placements.movedTo(sid, target)
		return nil
	}
	return lastErr
}

// callMigrate POSTs one migrate request to the session's source shard,
// under the budget of a full session drain rather than one proxied
// request. The target's followers are the one rule's
// (placements.migrateFollowers).
func (g *Gateway) callMigrate(ctx context.Context, src *Backend, sid, target string) (*server.MigrateResponse, error) {
	body, err := json.Marshal(server.MigrateRequest{Target: target, Replicate: g.placements.migrateFollowers(sid, target)})
	if err != nil {
		return nil, err
	}
	status, data, _, err := g.pool.once(ctx, src, http.MethodPost,
		"/v1/sessions/"+url.PathEscape(sid)+"/migrate", "application/json", body, g.opts.MigrateTimeout)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		var mr server.MigrateResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			return nil, fmt.Errorf("decoding migrate response: %w", err)
		}
		return &mr, nil
	case http.StatusGone:
		// The source already tombstoned the session (a prior attempt
		// committed); the migration is done.
		return &server.MigrateResponse{SessionID: sid, Target: target, AlreadyMigrated: true}, nil
	default:
		return nil, fmt.Errorf("migrate on %s: status %d: %s", src.URL(), status, errDetail(data))
	}
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
