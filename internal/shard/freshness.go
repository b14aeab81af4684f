// Freshness tracking: the gateway's per-backend view of how much of
// each patient's data a shard holds, in streams and vertices. The
// scatter planner compares a follower's tracked holdings against the
// primary's to decide whether the follower is within a query's
// max-lag bound.
//
// The tracker is advisory, never authoritative: a follower asked to
// serve a patient re-verifies its real local holdings against the
// Require bound its leg carries (wal.MatchLegRequest) and refuses if
// short, and the gateway retries refused patients on the primary. A
// stale tracker therefore costs a retry leg, not correctness.
//
// It is fed from three sides, all piggybacked on traffic the gateway
// already sends:
//   - ingest/create acks: the primary reports the patient's post-write
//     counts (X-Patient-Streams/X-Patient-Vertices); X-Replicated:
//     full credits the session's followers with the same counts, since
//     a clean synchronous flush proves they hold at least that much.
//   - match legs: each shard self-reports its holdings for every
//     patient the leg's scope named (wal.MatchLegReply.Freshness).
//   - /v1/shard/stats polling (RefreshFreshness): per-patient holdings
//     for every live or followed session on the shard.

package shard

import (
	"sync"

	"stsmatch/internal/server"
)

type freshTracker struct {
	mu sync.Mutex
	// byBackend maps backend URL -> patient ID -> last known holdings.
	byBackend map[string]map[string]server.PatientFreshness
}

func newFreshTracker() *freshTracker {
	return &freshTracker{byBackend: make(map[string]map[string]server.PatientFreshness)}
}

// observe records a backend's own report of its holdings for a
// patient. Self-reports overwrite: they are authoritative for that
// backend, and counts only grow on a live shard, so an overwrite also
// corrects any over-credit from a previous replication inference.
func (f *freshTracker) observe(backend, pid string, fr server.PatientFreshness) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ensure(backend)[pid] = fr
}

// observeMap records a batch of self-reports (match-leg piggybacks,
// stats polls).
func (f *freshTracker) observeMap(backend string, m map[string]server.PatientFreshness) {
	if len(m) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	pats := f.ensure(backend)
	for pid, fr := range m {
		pats[pid] = fr
	}
}

// credit raises a backend's tracked holdings to at least fr without
// lowering anything a self-report established — the inference path
// ("the primary acked a fully replicated write, so the follower holds
// at least this much").
func (f *freshTracker) credit(backend, pid string, fr server.PatientFreshness) {
	f.mu.Lock()
	defer f.mu.Unlock()
	pats := f.ensure(backend)
	cur := pats[pid]
	if fr.Streams > cur.Streams {
		cur.Streams = fr.Streams
	}
	if fr.Vertices > cur.Vertices {
		cur.Vertices = fr.Vertices
	}
	pats[pid] = cur
}

// holdings returns the tracked view of a backend's data for a patient.
func (f *freshTracker) holdings(backend, pid string) (server.PatientFreshness, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fr, ok := f.byBackend[backend][pid]
	return fr, ok
}

func (f *freshTracker) ensure(backend string) map[string]server.PatientFreshness {
	pats := f.byBackend[backend]
	if pats == nil {
		pats = make(map[string]server.PatientFreshness)
		f.byBackend[backend] = pats
	}
	return pats
}
