// Elastic rebalancing (PR 10): when the backend set changes, the
// gateway computes which sessions' ring arcs moved and drains exactly
// those onto their new owners through the shards' live-migration
// endpoint (POST /v1/sessions/{sid}/migrate), with bounded
// concurrency and per-session retry/backoff.
//
// The drain is crash-safe from either side because it is formulated as
// "diff ACTUAL placement against DESIRED", not as a journal of planned
// moves. Actual placement is rediscovered from the shards' own
// inventories (/v1/shard/stats), so a fresh gateway — or one restarted
// mid-drain — recomputes exactly the not-yet-moved remainder: sessions
// whose migration committed answer from their new primary (or via the
// source's 410 tombstone) and drop out of the diff, while interrupted
// ones are re-driven through the migrate endpoint's idempotent
// re-drive path. A shard crash mid-migration is likewise recovered by
// re-running Rebalance: a dead source fails over onto a surviving
// replica first, and the move re-drives from the new primary.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
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
	g.ring.Add(url)
	return nil
}

// Rebalance drains every session whose ring-designated primary differs
// from where it actually lives, migrating each onto its new owner. Safe
// to re-run at any time: a no-op when placement already matches the
// ring, and the re-drive path after any crash.
func (g *Gateway) Rebalance(ctx context.Context) RebalanceReport {
	g.met.rebalances.Inc()
	g.discoverPlacements(ctx, "")

	type task struct {
		sid, pid, from string
		desired        []string
	}
	var tasks []task
	rep := RebalanceReport{Failed: map[string]string{}}
	g.mu.Lock()
	for sid, pl := range g.places {
		rep.Checked++
		desired := g.ring.Owners(pl.patientID, g.opts.Replicas)
		if len(desired) == 0 || pl.primary == desired[0] {
			rep.Skipped++
			continue
		}
		tasks = append(tasks, task{sid: sid, pid: pl.patientID, from: pl.primary, desired: desired})
	}
	g.mu.Unlock()
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].sid < tasks[b].sid })

	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, g.opts.RebalanceConcurrency)
	)
	for _, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(t task) {
			defer wg.Done()
			defer func() { <-sem }()
			err := g.migrateSession(ctx, t.sid, t.desired)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rep.Failed[t.sid] = err.Error()
				g.met.rebalanceFailures.Inc()
				g.log.Warn("rebalance: session move failed",
					slog.String("sessionId", t.sid), slog.Any("err", err))
				return
			}
			rep.Moved = append(rep.Moved, MovedSession{
				SessionID: t.sid, PatientID: t.pid, From: t.from, To: t.desired[0],
			})
			g.met.rebalanceMoved.Inc()
		}(t)
	}
	wg.Wait()
	sort.Slice(rep.Moved, func(a, b int) bool { return rep.Moved[a].SessionID < rep.Moved[b].SessionID })
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	g.log.Info("rebalance finished",
		slog.Int("checked", rep.Checked),
		slog.Int("moved", len(rep.Moved)),
		slog.Int("failed", len(rep.Failed)))
	return rep
}

// migrateSession moves one session onto desired[0], retrying with
// backoff. A dead source is failed over onto a surviving replica first
// (the ordinary promote path), then the move re-drives from the new
// primary; a source that already committed the migration answers
// AlreadyMigrated and the placement just catches up.
func (g *Gateway) migrateSession(ctx context.Context, sid string, desired []string) error {
	ctx, sp := obs.StartSpan(ctx, "migrate")
	defer sp.Finish()
	sp.Annotate("sessionId", sid)
	sp.Annotate("target", desired[0])
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
		src, pl, err := g.serving(ctx, sid)
		if pl == nil {
			return err // closed since the diff was taken
		}
		if err != nil {
			lastErr = err
			continue
		}
		if src.URL() == desired[0] {
			// Failover (or a prior partially-observed attempt) already put
			// the session on its designated owner.
			g.updatePlacement(sid, desired)
			return nil
		}
		resp, err := g.callMigrate(ctx, src, sid, desired)
		if err != nil {
			lastErr = err
			continue
		}
		sp.Annotate("epoch", resp.Epoch)
		g.updatePlacement(sid, desired)
		return nil
	}
	return lastErr
}

// callMigrate POSTs one migrate request to the session's source shard,
// under the budget of a full session drain rather than one proxied
// request.
func (g *Gateway) callMigrate(ctx context.Context, src *Backend, sid string, desired []string) (*server.MigrateResponse, error) {
	// Unhealthy designated replicas are dropped from the tail, exactly
	// as failover drops a dead primary: shipping to a dead node would
	// put a replica error on every post-cutover ack. A re-run once the
	// node is readmitted re-links it.
	tail := make([]string, 0, len(desired)-1)
	for _, u := range desired[1:] {
		if b := g.pool.ByURL(u); b != nil && b.Healthy() {
			tail = append(tail, u)
		}
	}
	body, err := json.Marshal(server.MigrateRequest{Target: desired[0], Replicate: tail})
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
		return &server.MigrateResponse{SessionID: sid, Target: desired[0], AlreadyMigrated: true}, nil
	default:
		return nil, fmt.Errorf("migrate on %s: status %d: %s", src.URL(), status, errDetail(data))
	}
}

// updatePlacement points a session's placement at its ring-designated
// owner set after a completed move.
func (g *Gateway) updatePlacement(sid string, desired []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if pl, ok := g.places[sid]; ok {
		pl.primary = desired[0]
		pl.owners = append([]string(nil), desired...)
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
