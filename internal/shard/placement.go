package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"stsmatch/internal/server"
)

// placements decides where sessions live and who follows them: the ring
// that designates each patient's owners, the session table and the
// subscription table, under one lock. The gateway makes the network
// calls and asks here for every choice of a node; backend health comes
// in as a func(url string) bool.
type placements struct {
	replicas int

	mu       sync.Mutex
	ring     *Ring
	sessions map[string]*placement
	// subs maps a subscription ID to the scope it was registered under,
	// {patientID, sessionID}: a scope, not a backend, so it follows
	// failover.
	subs map[string][2]string
}

// placement records where a session lives: the node serving it ("" when
// a gateway restart found only followers), its designated owners, and
// the nodes a failover moved it away from.
type placement struct {
	patientID string
	primary   string
	owners    []string
	deposed   []string
}

// promotion is one failover candidate and the followers it ships to.
type promotion struct {
	to        string
	replicate []string
}

func newPlacements(backends []string, replicas int) *placements {
	p := &placements{
		replicas: replicas,
		ring:     NewRing(DefaultVnodes),
		sessions: make(map[string]*placement),
		subs:     make(map[string][2]string),
	}
	for _, b := range backends {
		p.ring.Add(b)
	}
	return p
}

// followers is the one rule for who follows a new primary: every
// designated owner except the primary itself and the nodes the session
// was failed over away from, healthy or not. A deposed node holds the
// epoch it lost and would fence every shipment. An unhealthy owner
// costs each ack a replica error while it is down and is caught up
// once back; leaving it out would leave the session a
// follower short for good.
func followers(owners []string, primary string, deposed []string) []string {
	out := make([]string, 0, len(owners))
	for _, u := range owners {
		if u != primary && !slices.Contains(deposed, u) {
			out = append(out, u)
		}
	}
	return out
}

// firstHealthy returns a patient's first designated owner that healthy
// admits, and all its owners. That owner is a new session's primary and
// a patient-scoped subscription's shard (a session-scoped one follows
// its session).
func (p *placements) firstHealthy(patientID string, healthy func(string) bool) (string, []string, error) {
	p.mu.Lock()
	owners := p.ring.Owners(patientID, p.replicas)
	p.mu.Unlock()
	if i := slices.IndexFunc(owners, healthy); i >= 0 {
		return owners[i], owners, nil
	}
	return "", nil, fmt.Errorf("no healthy owner for patient %s (owners %v)", patientID, owners)
}

// create places a new session: its patient's first healthy owner is
// primary (any owner can be, as there is no data to hand over yet) and
// the other owners follow. commit records it, once the primary has
// accepted the session.
func (p *placements) create(sid, patientID string, healthy func(string) bool) (primary string, replicate []string, commit func(), err error) {
	primary, owners, err := p.firstHealthy(patientID, healthy)
	if err != nil {
		return "", nil, nil, err
	}
	return primary, followers(owners, primary, nil), func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.sessions[sid] = &placement{patientID: patientID, primary: primary, owners: owners}
	}, nil
}

// lookup returns a session's primary and copies of its owners and
// deposed nodes; ok is false when the session is unknown.
func (p *placements) lookup(sid string) (primary string, owners, deposed []string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.sessions[sid]; ok {
		return pl.primary, slices.Clone(pl.owners), slices.Clone(pl.deposed), true
	}
	return "", nil, nil, false
}

// resolve reports who serves a session: its primary if healthy admits
// it, else "" (the caller fails the session over). known is false when
// the table does not hold the session.
func (p *placements) resolve(sid string, healthy func(string) bool) (primary string, known bool) {
	p.mu.Lock()
	if pl, ok := p.sessions[sid]; ok {
		primary, known = pl.primary, true
	}
	p.mu.Unlock()
	if primary == "" || !healthy(primary) {
		return "", known
	}
	return primary, true
}

// candidates lists, in owner order, the healthy owners a failover may
// promote, each with its followers: never the primary it deposes
// (from), nor a node deposed before.
func (p *placements) candidates(sid string, healthy func(string) bool) (from string, cands []promotion) {
	from, owners, deposed, _ := p.lookup(sid)
	gone := append(deposed, from)
	for _, u := range owners {
		if !slices.Contains(gone, u) && healthy(u) {
			cands = append(cands, promotion{to: u, replicate: followers(owners, u, gone)})
		}
	}
	return from, cands
}

// failedOver records a completed failover: to serves the session, and
// from is deposed for good.
func (p *placements) failedOver(sid, from, to string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.sessions[sid]; ok {
		pl.primary = to
		if from != "" && !slices.Contains(pl.deposed, from) {
			pl.deposed = append(pl.deposed, from)
		}
	}
}

// migrateFollowers is who follows target once a migration moves the
// session there.
func (p *placements) migrateFollowers(sid, target string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.sessions[sid]; ok {
		return followers(p.ring.Owners(pl.patientID, p.replicas), target, pl.deposed)
	}
	return nil
}

// movedTo repoints a session that a committed migration moved, or a 410
// Location hint says moved, to primary: its owners become the ring's
// current designated owners, with primary first if they leave it out.
func (p *placements) movedTo(sid, primary string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.sessions[sid]; ok {
		pl.owners = p.ring.Owners(pl.patientID, p.replicas)
		pl.setPrimary(primary)
	}
}

// setPrimary makes u the session's primary, among its owners and no
// longer deposed.
func (pl *placement) setPrimary(u string) {
	pl.primary = u
	if !slices.Contains(pl.owners, u) {
		pl.owners = append([]string{u}, pl.owners...)
	}
	pl.deposed = slices.DeleteFunc(pl.deposed, func(d string) bool { return d == u })
}

// forget drops a session: it closed, or its entry went stale.
func (p *placements) forget(sid string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.sessions, sid)
}

// fold merges the shards' session inventories into the table — for one
// session, or all when only is "" — so routing after a gateway restart
// and the rebalance diff start from where sessions actually live. A
// Sessions claim names its node at its epoch, a Retired claim (a
// tombstone) the owner it names at that owner's epoch, so a transfer
// read mid-way is never unplaced; a Replicas claim names a follower. A
// session only followers hold gets no primary, and the first resolve
// fails it over. Of the claims the highest epoch is the primary and the
// lower ones are deposed: a primary a failover deposed and that came
// back still serving its stale copy, or a migration's fenced source
// beside its promoted target. The table stays
// authoritative: only unknown sessions are added, and a missing
// primary is filled, never with a node the entry lists as deposed.
func (p *placements) fold(only string, invs []answer[server.ShardStatsResponse]) {
	found := make(map[string]*placement)
	epochs := make(map[string]uint64) // the epoch each found primary claims
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
	for _, inv := range invs {
		if inv.err != nil {
			continue
		}
		u := inv.backend.URL()
		for i, e := range slices.Concat(inv.val.Sessions, inv.val.Retired) {
			by := u
			if i >= len(inv.val.Sessions) {
				if by = e.Owner; by == "" {
					continue // a tombstone naming no owner claims nothing
				}
			}
			pl := claim(e)
			switch {
			case pl == nil:
			case pl.primary == by:
				epochs[e.SessionID] = max(epochs[e.SessionID], e.Epoch)
			case pl.primary == "" || e.Epoch > epochs[e.SessionID]:
				if pl.primary != "" {
					pl.deposed = append(pl.deposed, pl.primary)
				}
				pl.setPrimary(by)
				epochs[e.SessionID] = e.Epoch
			case e.Epoch < epochs[e.SessionID]:
				pl.deposed = append(pl.deposed, by)
			}
		}
		for _, e := range inv.val.Replicas {
			if pl := claim(e); pl != nil {
				pl.owners = append(pl.owners, u)
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for sid, pl := range found {
		if cur, ok := p.sessions[sid]; !ok {
			p.sessions[sid] = pl
		} else if cur.primary == "" && pl.primary != "" && !slices.Contains(cur.deposed, pl.primary) {
			cur.setPrimary(pl.primary)
			cur.deposed = append(cur.deposed, pl.deposed...)
		}
	}
}

// diff compares every session's primary with the ring's designated
// primary: the moves a rebalance makes, in session ID order, and how
// many sessions were checked.
func (p *placements) diff() (moves []MovedSession, checked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for sid, pl := range p.sessions {
		if desired := p.ring.Owners(pl.patientID, p.replicas); len(desired) > 0 && pl.primary != desired[0] {
			moves = append(moves, MovedSession{SessionID: sid, PatientID: pl.patientID, From: pl.primary, To: desired[0]})
		}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].SessionID < moves[b].SessionID })
	return moves, len(p.sessions)
}

// join adds a backend's arcs to the ring.
func (p *placements) join(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring.Add(url)
}

// covered is Ring.Covered at the replication factor: whether every arc
// node is primary for has a replica among answered.
func (p *placements) covered(node string, answered map[string]bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.Covered(node, p.replicas, func(u string) bool { return answered[u] })
}

// subscribed records the scope a subscription was registered under.
func (p *placements) subscribed(id, patientID, sessionID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subs[id] = [2]string{patientID, sessionID}
}

// subscription returns a subscription's scope, and with drop forgets
// it; ok is false when the subscription is unknown.
func (p *placements) subscription(id string, drop bool) (patientID, sessionID string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.subs[id]
	if drop {
		delete(p.subs, id)
	}
	return s[0], s[1], ok
}
