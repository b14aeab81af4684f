// Package subscribe implements standing queries: patterns registered
// once and evaluated incrementally as vertices arrive, instead of
// re-scanning the corpus per poll. A Manager multiplexes every
// registered subscription over the store mutation-hook path the WAL
// and signature index already ride — the hook only buffers (it runs
// under the mutated stream's write lock), and the server drains the
// buffer under its session lock right after each ingest batch, so
// evaluation order is exactly WAL order and recovery can re-derive
// the event stream deterministically.
package subscribe

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/obs"
	"stsmatch/internal/store"
	"stsmatch/internal/wal"
)

// DefaultBuffer is the default per-subscription undelivered-event
// buffer capacity.
const DefaultBuffer = 4096

// Manager owns every standing subscription on one node. All mutating
// entry points are safe for concurrent use; evaluation itself
// (Drain, Replay) is additionally serialized by the server's session
// lock, which is what makes event derivation deterministic.
type Manager struct {
	params core.Params
	bufCap int
	now    func() float64 // wall clock, unix seconds (injectable in tests)

	mu    sync.Mutex
	subs  map[string]*Subscription
	order []string // registration order (evaluation order per delta)

	// pending buffers stream deltas noted by the mutation hook, which
	// runs under the mutated stream's write lock and therefore cannot
	// evaluate (evaluation reads the stream). Drain consumes it.
	pmu     sync.Mutex
	pending []delta
}

type delta struct {
	patientID string
	sessionID string
}

// Subscription is one registered standing query plus its evaluation
// state. All fields are guarded by the owning Manager's mu.
type Subscription struct {
	state   wal.SubState // durable view; Cursors materialized on demand
	sq      *core.StandingQuery
	cursors map[string]uint64 // stream key -> evaluated length

	evals     uint64 // incremental evaluations run
	delivered uint64 // events written to consumers (counter, not hwm)
	dropped   uint64 // undelivered events evicted by the buffer cap
	counts    core.FunnelCounts
	notify    chan struct{} // closed and replaced when events arrive
}

// NewManager creates a manager evaluating with the given matcher
// params. bufCap caps each subscription's undelivered-event buffer
// (<= 0 selects DefaultBuffer); when a consumer falls further behind
// than the cap, the oldest unacknowledged events are evicted (counted
// in the list API as dropped).
func NewManager(p core.Params, bufCap int) *Manager {
	if bufCap <= 0 {
		bufCap = DefaultBuffer
	}
	m := &Manager{
		params: p,
		bufCap: bufCap,
		now:    func() float64 { return float64(time.Now().UnixNano()) / 1e9 },
		subs:   make(map[string]*Subscription),
	}
	// Scrape-time lag: newest manager wins the registration, which is
	// the live server in a process (tests start several).
	obs.Default().GaugeFunc("stsmatch_sub_delivery_lag_seconds",
		"Age of the oldest undelivered subscription event.", m.lag)
	return m
}

// lag computes the delivery-lag gauge at scrape time.
func (m *Manager) lag() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var oldest float64
	now := m.now()
	for _, s := range m.subs {
		if len(s.state.Events) > 0 {
			if l := now - s.state.Events[0].At; l > oldest {
				oldest = l
			}
		}
	}
	return oldest
}

// SetClock replaces the wall-clock source (tests).
func (m *Manager) SetClock(now func() float64) { m.now = now }

func streamKey(patientID, sessionID string) string {
	return patientID + "\x00" + sessionID
}

func splitKey(k string) (patientID, sessionID string) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// Register validates and installs a subscription from its durable
// state, replacing any existing subscription with the same ID (the
// re-arm path: replication and recovery replay upserts). The state's
// Threshold is normalized to the effective value so the caller
// journals exactly what will be evaluated. When db is non-nil and the
// state carries no cursors, the current lengths of every in-scope
// stream are captured as the registration baseline: standing queries
// match forward from registration, never retroactively. Streams that
// appear later default to cursor 0, which is the correct baseline for
// them (all their windows are new).
func (m *Manager) Register(st *wal.SubState, db *store.DB) (*Subscription, error) {
	if st.ID == "" {
		return nil, fmt.Errorf("subscribe: subscription needs an id")
	}
	q := core.Query{Seq: st.Pattern, PatientID: st.PatientID, SessionID: st.SessionID}
	sq, err := core.NewStandingQuery(m.params, q, st.Threshold, int(st.K))
	if err != nil {
		return nil, err
	}
	st.Threshold = sq.Threshold()
	if st.NextSeq == 0 {
		st.NextSeq = 1
	}
	if st.Cursors == nil && db != nil {
		st.Cursors = m.baselines(st, db)
	}
	s := &Subscription{
		state:   *st,
		sq:      sq,
		cursors: make(map[string]uint64, len(st.Cursors)),
		notify:  make(chan struct{}),
	}
	for _, c := range st.Cursors {
		s.cursors[streamKey(c.PatientID, c.SessionID)] = c.Len
	}
	// The events kept in durable state are the undelivered buffer.
	s.state.Events = append([]wal.SubEvent(nil), st.Events...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.subs[st.ID]; !ok {
		m.order = append(m.order, st.ID)
		mActive.Inc()
	}
	m.subs[st.ID] = s
	return s, nil
}

// baselines captures the current length of every stream in the
// subscription's scope.
func (m *Manager) baselines(st *wal.SubState, db *store.DB) []wal.SubCursor {
	cursors := []wal.SubCursor{} // non-nil: baseline captured, possibly empty
	for _, p := range db.Patients() {
		if st.PatientID != "" && st.PatientID != p.Info.ID {
			continue
		}
		for _, sess := range p.Streams {
			if st.SessionID != "" && st.SessionID != sess.SessionID {
				continue
			}
			if n := sess.Len(); n > 0 {
				cursors = append(cursors, wal.SubCursor{
					PatientID: sess.PatientID,
					SessionID: sess.SessionID,
					Len:       uint64(n),
				})
			}
		}
	}
	return cursors
}

// Delete removes a subscription. It reports whether it existed.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.subs[id]; !ok {
		return false
	}
	delete(m.subs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	mActive.Dec()
	return true
}

// Expel removes a subscription locally AND wakes any consumer stream
// blocked on its notify channel, so attached readers disconnect
// immediately instead of waiting out a heartbeat. This is the
// migration-handoff path, not a consumer-visible deletion: the
// subscription lives on at the session's new home (it was shipped
// inside the catch-up snapshot), and a woken gateway proxy re-resolves
// the placement and resumes the stream there from its Last-Event-ID.
func (m *Manager) Expel(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return false
	}
	delete(m.subs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	close(s.notify)
	mActive.Dec()
	return true
}

// Ack advances a subscription's delivery high-water mark and drops
// acknowledged events from the buffer. It reports whether the
// subscription exists.
func (m *Manager) Ack(id string, seq uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return false
	}
	if seq > s.state.Delivered {
		s.state.Delivered = seq
		i := 0
		for i < len(s.state.Events) && s.state.Events[i].Seq <= seq {
			i++
		}
		s.state.Events = append(s.state.Events[:0], s.state.Events[i:]...)
	}
	return true
}

// NoteDelivered counts events written to a consumer stream (the
// observability counter, distinct from the durable acked hwm).
func (m *Manager) NoteDelivered(id string, n int) {
	if n <= 0 {
		return
	}
	mDelivered.Add(n)
	m.mu.Lock()
	if s, ok := m.subs[id]; ok {
		s.delivered += uint64(n)
	}
	m.mu.Unlock()
}

// OnMutation is the store mutation hook: it runs under the mutated
// stream's write lock, so it only buffers the delta for Drain.
func (m *Manager) OnMutation(mut store.Mutation) {
	if mut.Kind != store.MutVertexAppend || len(mut.Vertices) == 0 {
		return
	}
	m.pmu.Lock()
	if n := len(m.pending); n > 0 &&
		m.pending[n-1].patientID == mut.PatientID &&
		m.pending[n-1].sessionID == mut.SessionID {
		m.pmu.Unlock() // coalesce consecutive appends to one stream
		return
	}
	m.pending = append(m.pending, delta{patientID: mut.PatientID, sessionID: mut.SessionID})
	m.pmu.Unlock()
}

// Drain evaluates every buffered stream delta against every in-scope
// subscription, in registration order, up to each stream's current
// length. The caller must hold the server's session lock so that
// evaluation order equals WAL append order. It returns the number of
// events emitted.
func (m *Manager) Drain(ctx context.Context, db *store.DB) int {
	m.pmu.Lock()
	deltas := m.pending
	m.pending = nil
	m.pmu.Unlock()
	if len(deltas) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.subs) == 0 {
		return 0
	}
	emitted := 0
	for _, d := range deltas {
		p := db.Patient(d.patientID)
		if p == nil {
			continue
		}
		st := p.StreamBySession(d.sessionID)
		if st == nil {
			continue
		}
		emitted += m.evalStreamLocked(ctx, st, uint64(st.Len()))
	}
	return emitted
}

// EvalStream evaluates one stream against every in-scope subscription
// up to the given length (the replication and recovery-replay entry
// point, where the caller knows the exact boundary the events must be
// derived at). The caller must hold the server's session lock.
func (m *Manager) EvalStream(ctx context.Context, db *store.DB, patientID, sessionID string, to uint64) int {
	p := db.Patient(patientID)
	if p == nil {
		return 0
	}
	st := p.StreamBySession(sessionID)
	if st == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evalStreamLocked(ctx, st, to)
}

// evalStreamLocked runs each in-scope subscription's incremental
// evaluation over the windows of st ending in [cursor, to).
func (m *Manager) evalStreamLocked(ctx context.Context, st *store.Stream, to uint64) int {
	emitted := 0
	recording := obs.SpanFromContext(ctx).Recording() // the spans' attribute maps are built only for a recorded trace
	for _, id := range m.order {
		s := m.subs[id]
		if !s.inScope(st.PatientID, st.SessionID) {
			continue
		}
		key := streamKey(st.PatientID, st.SessionID)
		from := s.cursors[key]
		if from >= to {
			continue
		}
		start := time.Now()
		// EvalRange's error is always nil (kept for its call shape).
		matches, counts, _ := s.sq.EvalRange(st, int(from), int(to))
		s.cursors[key] = to
		s.evals++
		s.counts.Add(counts)
		mEvals.Inc()
		now := m.now()
		for _, mt := range matches {
			e := wal.SubEvent{
				Seq:       s.state.NextSeq,
				PatientID: mt.Stream.PatientID,
				SessionID: mt.Stream.SessionID,
				Start:     uint32(mt.Start),
				N:         uint32(mt.N),
				Relation:  uint8(mt.Relation),
				Distance:  mt.Distance,
				Weight:    mt.Weight,
				EndT:      mt.EndTime(),
				At:        now,
			}
			s.state.NextSeq++
			s.state.Events = append(s.state.Events, e)
			emitted++
		}
		if over := len(s.state.Events) - m.bufCap; over > 0 {
			s.dropped += uint64(over)
			s.state.Events = append(s.state.Events[:0], s.state.Events[over:]...)
		}
		if len(matches) > 0 {
			close(s.notify)
			s.notify = make(chan struct{})
		}
		if recording {
			obs.AddSpan(ctx, "subscribe.eval", start, time.Since(start), map[string]any{
				"sub":           id,
				"patient":       st.PatientID,
				"session":       st.SessionID,
				"from":          from,
				"to":            to,
				"candidates":    counts.Windows,
				"state_reject":  counts.StateRejected,
				"self_excluded": counts.SelfExcluded,
				"lb_pruned":     counts.LBPruned,
				"dist_rejected": counts.DistRejected,
				"matched":       counts.Matched,
			})
		}
	}
	return emitted
}

func (s *Subscription) inScope(patientID, sessionID string) bool {
	return (s.state.PatientID == "" || s.state.PatientID == patientID) &&
		(s.state.SessionID == "" || s.state.SessionID == sessionID)
}

// Read returns a copy of the buffered events with Seq > after, plus a
// channel that is closed the next time any event is appended (so a
// caller seeing no events can wait without polling). ok is false when
// the subscription does not exist.
func (m *Manager) Read(id string, after uint64) (events []wal.SubEvent, wait <-chan struct{}, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, okk := m.subs[id]
	if !okk {
		return nil, nil, false
	}
	i := 0
	for i < len(s.state.Events) && s.state.Events[i].Seq <= after {
		i++
	}
	if i < len(s.state.Events) {
		events = append([]wal.SubEvent(nil), s.state.Events[i:]...)
	}
	return events, s.notify, true
}

// Status is one subscription's listing view.
type Status struct {
	ID        string  `json:"id"`
	PatientID string  `json:"patientId,omitempty"`
	SessionID string  `json:"sessionId,omitempty"`
	Threshold float64 `json:"threshold"`
	K         int     `json:"k,omitempty"`
	PatternN  int     `json:"patternN"`

	Evals      uint64 `json:"evals"`
	Candidates int    `json:"candidates"`
	Matched    int    `json:"matched"`
	NextSeq    uint64 `json:"nextSeq"`
	Delivered  uint64 `json:"deliveredSeq"`
	Sent       uint64 `json:"eventsSent"`
	Buffered   int    `json:"eventsBuffered"`
	Dropped    uint64 `json:"eventsDropped,omitempty"`
}

// List returns every subscription's status, in registration order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		s := m.subs[id]
		out = append(out, Status{
			ID:        s.state.ID,
			PatientID: s.state.PatientID,
			SessionID: s.state.SessionID,
			Threshold: s.state.Threshold,
			K:         int(s.state.K),
			PatternN:  len(s.state.Pattern),

			Evals:      s.evals,
			Candidates: s.counts.Windows,
			Matched:    s.counts.Matched,
			NextSeq:    s.state.NextSeq,
			Delivered:  s.state.Delivered,
			Sent:       s.delivered,
			Buffered:   len(s.state.Events),
			Dropped:    s.dropped,
		})
	}
	return out
}

// Get returns one subscription's status.
func (m *Manager) Get(id string) (Status, bool) {
	for _, st := range m.List() {
		if st.ID == id {
			return st, true
		}
	}
	return Status{}, false
}

// States returns the full durable state of every subscription, in
// registration order: the WAL snapshot section and the replication
// catch-up payload.
func (m *Manager) States() []wal.SubState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.SubState, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.subs[id].stateLocked())
	}
	return out
}

// StatesInScope returns the durable state of every subscription whose
// scope covers the given stream, in registration order — the records a
// primary ships so a follower re-arms them (snapshot catch-up path).
func (m *Manager) StatesInScope(patientID, sessionID string) []wal.SubState {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []wal.SubState
	for _, id := range m.order {
		if s := m.subs[id]; s.inScope(patientID, sessionID) {
			out = append(out, s.stateLocked())
		}
	}
	return out
}

// IDsInScope returns the IDs of every subscription covering the given
// stream, in registration order.
func (m *Manager) IDsInScope(patientID, sessionID string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, id := range m.order {
		if m.subs[id].inScope(patientID, sessionID) {
			out = append(out, id)
		}
	}
	return out
}

// Has reports whether a subscription with the given ID exists.
func (m *Manager) Has(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.subs[id]
	return ok
}

// State returns one subscription's durable state.
func (m *Manager) State(id string) (wal.SubState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return wal.SubState{}, false
	}
	return s.stateLocked(), true
}

func (s *Subscription) stateLocked() wal.SubState {
	st := s.state
	st.Cursors = make([]wal.SubCursor, 0, len(s.cursors))
	for k, v := range s.cursors {
		pid, sid := splitKey(k)
		st.Cursors = append(st.Cursors, wal.SubCursor{PatientID: pid, SessionID: sid, Len: v})
	}
	sort.Slice(st.Cursors, func(a, b int) bool {
		if st.Cursors[a].PatientID != st.Cursors[b].PatientID {
			return st.Cursors[a].PatientID < st.Cursors[b].PatientID
		}
		return st.Cursors[a].SessionID < st.Cursors[b].SessionID
	})
	st.Events = append([]wal.SubEvent(nil), s.state.Events...)
	return st
}

// Health is the healthz view of the subsystem.
type Health struct {
	Count     int     `json:"count"`
	Buffered  int     `json:"eventsBuffered"`
	OldestLag float64 `json:"oldestCursorLagSeconds"`
}

// Health reports the active subscription count, total buffered
// undelivered events, and the age of the oldest undelivered event.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{Count: len(m.subs)}
	now := m.now()
	for _, s := range m.subs {
		h.Buffered += len(s.state.Events)
		if len(s.state.Events) > 0 {
			if lag := now - s.state.Events[0].At; lag > h.OldestLag {
				h.OldestLag = lag
			}
		}
	}
	return h
}
