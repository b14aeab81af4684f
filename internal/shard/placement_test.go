package shard

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"stsmatch/internal/server"
)

// The placement decisions, on their own: no server, no listener. Health
// is a function of the URL, so a node is ejected by naming it.

var placementNodes = []string{"http://s1", "http://s2", "http://s3", "http://s4"}

// admit is a health function that admits every node but the ejected.
func admit(ejected ...string) func(string) bool {
	return func(u string) bool { return !slices.Contains(ejected, u) }
}

// mustCreate places and records sid for pid with every node healthy, and
// returns its owners.
func mustCreate(t *testing.T, p *placements, sid, pid string) []string {
	t.Helper()
	primary, _, commit, err := p.create(sid, pid, admit())
	if err != nil {
		t.Fatal(err)
	}
	commit()
	got, owners, _, ok := p.lookup(sid)
	if !ok || got != primary || owners[0] != primary {
		t.Fatalf("after create: lookup = %q %v %v, want primary %q first", got, owners, ok, primary)
	}
	return owners
}

func TestPlacementsCreate(t *testing.T) {
	p := newPlacements(placementNodes[:3], 3)
	owners := p.ring.Owners("P1", 3)

	// The ring's first owner is ejected: the next one is primary, and
	// the ejected owner still follows.
	primary, replicate, commit, err := p.create("S1", "P1", admit(owners[0]))
	if err != nil {
		t.Fatal(err)
	}
	if primary != owners[1] || !slices.Equal(replicate, []string{owners[0], owners[2]}) {
		t.Fatalf("create with %s ejected = %s following %v, want %s following [%s %s]",
			owners[0], primary, replicate, owners[1], owners[0], owners[2])
	}
	if _, _, _, ok := p.lookup("S1"); ok {
		t.Fatal("create recorded the session before commit")
	}
	commit()
	if got, gotOwners, _, ok := p.lookup("S1"); !ok || got != owners[1] || !slices.Equal(gotOwners, owners) {
		t.Fatalf("after commit: lookup = %q %v %v, want %q %v", got, gotOwners, ok, owners[1], owners)
	}

	if _, _, _, err := p.create("S2", "P1", admit(owners...)); err == nil || !strings.Contains(err.Error(), "no healthy owner") {
		t.Errorf("create with every owner ejected: err %v, want no healthy owner", err)
	}
	if _, _, _, err := newPlacements(nil, 2).create("S3", "P1", admit()); err == nil {
		t.Error("create on an empty ring succeeded")
	}
}

func TestPlacementsFailoverCandidates(t *testing.T) {
	p := newPlacements(placementNodes, 3)
	o := mustCreate(t, p, "S1", "P1")
	a, b, c := o[0], o[1], o[2]

	if u, known := p.resolve("S1", admit()); u != a || !known {
		t.Fatalf("resolve = %q %v, want %q", u, known, a)
	}
	if u, known := p.resolve("S1", admit(a)); u != "" || !known {
		t.Fatalf("resolve with the primary ejected = %q %v, want \"\" and known", u, known)
	}
	if u, known := p.resolve("nobody", admit()); u != "" || known {
		t.Fatalf("resolve of an unknown session = %q %v", u, known)
	}

	// Owner order, never the primary; each candidate's followers are
	// the other owners, healthy or not, but never the deposed primary.
	from, cands := p.candidates("S1", admit(a))
	want := []promotion{{b, []string{c}}, {c, []string{b}}}
	if from != a || !slices.EqualFunc(cands, want, equalPromotion) {
		t.Fatalf("candidates = %q %v, want %q %v", from, cands, a, want)
	}
	if _, cands := p.candidates("S1", admit(a, b)); !slices.EqualFunc(cands, []promotion{{c, []string{b}}}, equalPromotion) {
		t.Fatalf("candidates with %s ejected too = %v, want %s following the ejected %s", b, cands, c, b)
	}

	// After failing over to b, a is deposed: healthy again, it is
	// neither a candidate nor a follower.
	p.failedOver("S1", a, b)
	if u, _ := p.resolve("S1", admit()); u != b {
		t.Fatalf("resolve after failover = %q, want %q", u, b)
	}
	if from, cands := p.candidates("S1", admit(b)); from != b || !slices.EqualFunc(cands, []promotion{{c, []string{}}}, equalPromotion) {
		t.Fatalf("candidates after deposing %s = %q %v, want %q [{%s []}]", a, from, cands, b, c)
	}
	p.failedOver("S1", b, c)
	if _, cands := p.candidates("S1", admit(c)); len(cands) != 0 {
		t.Fatalf("candidates with every other owner deposed = %v, want none", cands)
	}
	if primary, owners, deposed, _ := p.lookup("S1"); primary != c || !slices.Equal(owners, o) || !slices.Equal(deposed, []string{a, b}) {
		t.Errorf("after two failovers: %q over %v deposing %v, want %q over %v deposing [%s %s]", primary, owners, deposed, c, o, a, b)
	}
	if _, cands := p.candidates("nobody", admit()); cands != nil {
		t.Errorf("candidates of an unknown session = %v", cands)
	}
}

func equalPromotion(x, y promotion) bool {
	return x.to == y.to && slices.Equal(x.replicate, y.replicate)
}

// movedOnto finds a patient whose designated primary becomes node once
// it joins p's ring, and returns it with its designated owners after.
func movedOnto(t *testing.T, p *placements, node string) (string, []string) {
	t.Helper()
	grown := newPlacements(append(slices.Clone(placementNodes[:3]), node), p.replicas)
	for i := 0; i < 1000; i++ {
		pid := fmt.Sprintf("P%03d", i)
		if p.ring.Owner(pid) != node && grown.ring.Owner(pid) == node {
			return pid, grown.ring.Owners(pid, p.replicas)
		}
	}
	t.Fatal("no patient moves onto the new node")
	return "", nil
}

func TestPlacementsRebalanceDiffAndMigrate(t *testing.T) {
	p := newPlacements(placementNodes[:3], 3)
	n4 := placementNodes[3]
	pid, desired := movedOnto(t, p, n4)
	before := mustCreate(t, p, "S-moved", pid)
	mustCreate(t, p, "S-stays", "P-stays")
	if moves, checked := p.diff(); len(moves) != 0 || checked != 2 {
		t.Fatalf("diff before the grow = %v, %d checked; want nothing to move of 2", moves, checked)
	}

	p.join(n4)
	moves, checked := p.diff()
	want := []MovedSession{{SessionID: "S-moved", PatientID: pid, From: before[0], To: n4}}
	if checked != 2 || !slices.Equal(moves, want) {
		t.Fatalf("diff after the grow = %v, %d checked; want %v of 2", moves, checked, want)
	}

	// The migrate request's followers: every other designated owner,
	// whatever the health checker thinks of it.
	if got := p.migrateFollowers("S-moved", n4); !slices.Equal(got, desired[1:]) {
		t.Fatalf("migrate followers = %v, want %v", got, desired[1:])
	}
	// Once the session failed over away from its source, the source is
	// no follower of the target either.
	p.failedOver("S-moved", before[0], before[1])
	if got := p.migrateFollowers("S-moved", n4); slices.Contains(got, before[0]) || len(got) != len(desired)-2 {
		t.Fatalf("migrate followers after deposing %s = %v", before[0], got)
	}
	if got := p.migrateFollowers("nobody", n4); got != nil {
		t.Errorf("migrate followers of an unknown session = %v", got)
	}

	p.movedTo("S-moved", n4)
	if primary, owners, _, _ := p.lookup("S-moved"); primary != n4 || !slices.Equal(owners, desired) {
		t.Fatalf("after the move: %q %v, want %q %v", primary, owners, n4, desired)
	}
	if moves, _ := p.diff(); len(moves) != 0 {
		t.Fatalf("diff after the move = %v, want nothing", moves)
	}
}

func TestPlacementsGoneHint(t *testing.T) {
	p := newPlacements(placementNodes[:3], 2)
	owners := mustCreate(t, p, "S1", "P1")
	outside := placementNodes[0]
	for _, u := range placementNodes[:3] {
		if !slices.Contains(owners, u) {
			outside = u
		}
	}

	// A hint the ring designates: it serves, among the ring's owners.
	p.movedTo("S1", owners[1])
	if primary, got, _, _ := p.lookup("S1"); primary != owners[1] || !slices.Equal(got, owners) {
		t.Fatalf("hint %s: %q %v, want %q %v", owners[1], primary, got, owners[1], owners)
	}
	// A hint the ring does not designate leads the owners.
	p.movedTo("S1", outside)
	if primary, got, _, _ := p.lookup("S1"); primary != outside || !slices.Equal(got, append([]string{outside}, owners...)) {
		t.Fatalf("hint %s: %q %v, want it first before %v", outside, primary, got, owners)
	}
	// A hint for a session the table no longer holds records nothing.
	p.forget("S1")
	p.movedTo("S1", outside)
	if _, _, _, ok := p.lookup("S1"); ok {
		t.Fatal("a hint recreated a forgotten session")
	}
}

// inventory is one backend's /v1/shard/stats answer: the sessions it
// serves and those it follows.
func inventory(u string, serves, follows []string) answer[server.ShardStatsResponse] {
	var st server.ShardStatsResponse
	for _, sid := range serves {
		st.Sessions = append(st.Sessions, server.ShardSession{SessionID: sid, PatientID: "P-" + sid})
	}
	for _, sid := range follows {
		st.Replicas = append(st.Replicas, server.ShardSession{SessionID: sid, PatientID: "P-" + sid})
	}
	return answer[server.ShardStatsResponse]{backend: &Backend{url: u}, val: st}
}

func TestPlacementsFold(t *testing.T) {
	a, b, c, d := placementNodes[0], placementNodes[1], placementNodes[2], placementNodes[3]
	p := newPlacements(placementNodes, 2)
	known := mustCreate(t, p, "S-known", "P-known")
	invs := []answer[server.ShardStatsResponse]{
		inventory(a, []string{"S1"}, []string{"S-orphan"}),
		inventory(b, nil, []string{"S1", "S-orphan"}),
		inventory(c, []string{"S-known"}, nil), // disagrees with the table
		{backend: &Backend{url: d}, err: errors.New("unreachable"), val: server.ShardStatsResponse{
			Sessions: []server.ShardSession{{SessionID: "S-ghost", PatientID: "P"}}}},
	}

	// The lookup of one session folds only that session.
	p.fold("S-orphan", invs)
	if _, _, _, ok := p.lookup("S1"); ok {
		t.Fatal("folding S-orphan added S1")
	}
	// A session only followers hold has no primary; the first resolve
	// fails it over to a follower, in inventory order.
	if primary, owners, _, ok := p.lookup("S-orphan"); !ok || primary != "" || !slices.Equal(owners, []string{a, b}) {
		t.Fatalf("follower-only session: %q %v %v, want no primary over [%s %s]", primary, owners, ok, a, b)
	}
	if u, known := p.resolve("S-orphan", admit()); u != "" || !known {
		t.Fatalf("resolve of a follower-only session = %q %v, want \"\" and known", u, known)
	}
	if from, cands := p.candidates("S-orphan", admit()); from != "" || len(cands) != 2 || cands[0].to != a {
		t.Fatalf("candidates of a follower-only session = %q %v, want %s first", from, cands, a)
	}

	p.fold("", invs)
	if primary, owners, _, _ := p.lookup("S1"); primary != a || !slices.Equal(owners, []string{a, b}) {
		t.Fatalf("S1 = %q %v, want %s over [%s %s]", primary, owners, a, a, b)
	}
	if primary, owners, _, _ := p.lookup("S-known"); primary != known[0] || !slices.Equal(owners, known) {
		t.Fatalf("a known session = %q %v after the fold, want %q %v unchanged", primary, owners, known[0], known)
	}
	if _, _, _, ok := p.lookup("S-ghost"); ok {
		t.Fatal("an unreachable backend's answer was folded")
	}

	// A later inventory naming S-orphan's primary fills it in, first.
	p.fold("", []answer[server.ShardStatsResponse]{inventory(c, []string{"S-orphan"}, nil)})
	if primary, owners, _, _ := p.lookup("S-orphan"); primary != c || !slices.Equal(owners, []string{c, a, b}) {
		t.Fatalf("S-orphan after its primary appeared = %q %v, want %s over [%s %s %s]", primary, owners, c, c, a, b)
	}
}

// TestPlacementsFoldHighestEpoch: a restarted gateway that finds two
// nodes serving one session takes the higher epoch as primary, in
// whichever order the inventories answer, and never promotes or ships
// to the lower one — the deposed primary that came back.
func TestPlacementsFoldHighestEpoch(t *testing.T) {
	zombie, live, follower := placementNodes[0], placementNodes[1], placementNodes[2]
	claim := func(u string, epoch uint64) answer[server.ShardStatsResponse] {
		inv := inventory(u, []string{"S1"}, nil)
		inv.val.Sessions[0].Epoch = epoch
		return inv
	}
	for _, order := range [][]answer[server.ShardStatsResponse]{
		{claim(zombie, 1), claim(live, 2), inventory(follower, nil, []string{"S1"})},
		{claim(live, 2), claim(zombie, 1), inventory(follower, nil, []string{"S1"})},
	} {
		first := order[0].backend.URL()
		p := newPlacements(placementNodes[:3], 3)
		p.fold("", order)
		primary, _, deposed, ok := p.lookup("S1")
		if !ok || primary != live || !slices.Equal(deposed, []string{zombie}) {
			t.Errorf("%s answering first: primary %q, deposed %v, want %s with %s deposed", first, primary, deposed, live, zombie)
		}
		if from, cands := p.candidates("S1", admit(live)); from != live || len(cands) != 1 || !equalPromotion(cands[0], promotion{to: follower}) {
			t.Errorf("%s answering first: with %s down the candidates are %v from %q, want %s alone, shipping to no one", first, live, cands, from, follower)
		}
	}
}

// TestPlacementsFoldFillSkipsDeposed: a missing primary is filled from
// a later inventory, but never with a node the entry lists as deposed.
func TestPlacementsFoldFillSkipsDeposed(t *testing.T) {
	zombie, live := placementNodes[0], placementNodes[1]
	p := newPlacements(placementNodes[:3], 2)
	p.sessions["S1"] = &placement{patientID: "P", owners: []string{zombie, live}, deposed: []string{zombie}}
	p.fold("S1", []answer[server.ShardStatsResponse]{inventory(zombie, []string{"S1"}, nil)})
	if primary, _, _, _ := p.lookup("S1"); primary != "" {
		t.Fatalf("the fill elected %q, which the entry lists as deposed", primary)
	}
	p.fold("S1", []answer[server.ShardStatsResponse]{inventory(live, []string{"S1"}, nil)})
	if primary, _, _, _ := p.lookup("S1"); primary != live {
		t.Fatalf("primary = %q after %s claimed the session, want it", primary, live)
	}
}

func TestPlacementsSubscriptionRouting(t *testing.T) {
	p := newPlacements(placementNodes[:3], 2)
	owners := mustCreate(t, p, "S1", "P1")
	p.subscribed("by-session", "P1", "S1")
	p.subscribed("by-patient", "P2", "")

	// A session scope follows its session, through a failover.
	pid, sid, ok := p.subscription("by-session", false)
	if !ok || pid != "P1" || sid != "S1" {
		t.Fatalf("by-session scope = %q %q %v", pid, sid, ok)
	}
	p.failedOver(sid, owners[0], owners[1])
	if u, _ := p.resolve(sid, admit(owners[0])); u != owners[1] {
		t.Fatalf("a session-scoped subscription routes to %q after failover, want %q", u, owners[1])
	}

	// A patient scope goes to the patient's first healthy owner.
	pid, sid, ok = p.subscription("by-patient", true)
	if !ok || pid != "P2" || sid != "" {
		t.Fatalf("by-patient scope = %q %q %v", pid, sid, ok)
	}
	p2 := p.ring.Owners("P2", 2)
	if u, _, err := p.firstHealthy(pid, admit(p2[0])); err != nil || u != p2[1] {
		t.Fatalf("patient scope with %s ejected routes to %q (%v), want %q", p2[0], u, err, p2[1])
	}
	if _, _, err := p.firstHealthy(pid, admit(p2...)); err == nil {
		t.Fatal("patient scope with every owner ejected routed somewhere")
	}
	if _, _, ok := p.subscription("by-patient", false); ok {
		t.Fatal("a dropped subscription is still known")
	}
}

func TestPlacementsCovered(t *testing.T) {
	p := newPlacements(placementNodes[:3], 2)
	for _, n := range placementNodes[:3] {
		rest := map[string]bool{}
		for _, u := range placementNodes[:3] {
			rest[u] = u != n
		}
		if !p.covered(n, rest) {
			t.Errorf("covered(%s) with the rest answering = false, want true", n)
		}
	}
	if p.covered(placementNodes[0], nil) {
		t.Error("covered with nothing answering")
	}
}

// TestPlacementsFoldTombstone: a hand-over's tombstone is a claim for
// the owner it names, at that owner's epoch. A fold that read the
// target before the first catch-up reached it, the source after its
// commit and the old follower after its close still places the session
// on the target; a live claim at a higher epoch beats the tombstone.
func TestPlacementsFoldTombstone(t *testing.T) {
	source, follower, target, other := placementNodes[0], placementNodes[1], placementNodes[2], placementNodes[3]
	retired := func(u, owner string, epoch uint64) answer[server.ShardStatsResponse] {
		inv := inventory(u, nil, nil)
		inv.val.Retired = []server.ShardSession{{SessionID: "S1", PatientID: "P-S1", Owner: owner, Epoch: epoch}}
		return inv
	}
	p := newPlacements(placementNodes, 2)
	p.fold("", []answer[server.ShardStatsResponse]{
		inventory(target, nil, nil), retired(source, target, 2), inventory(follower, nil, nil),
	})
	if primary, _, deposed, ok := p.lookup("S1"); !ok || primary != target || len(deposed) != 0 {
		t.Fatalf("placement = %q deposed %v known %v, want %s", primary, deposed, ok, target)
	}

	live := inventory(other, []string{"S1"}, nil)
	live.val.Sessions[0].Epoch = 3
	for _, order := range [][]answer[server.ShardStatsResponse]{
		{retired(source, target, 2), live},
		{live, retired(source, target, 2)},
	} {
		p := newPlacements(placementNodes, 2)
		p.fold("", order)
		if primary, _, deposed, _ := p.lookup("S1"); primary != other || !slices.Equal(deposed, []string{target}) {
			t.Errorf("placement = %q deposed %v, want %s with %s deposed", primary, deposed, other, target)
		}
	}

	// A tombstone naming no owner (a node that advertises no URL) claims
	// nothing: not for the node holding it, not at all.
	p = newPlacements(placementNodes, 2)
	p.fold("", []answer[server.ShardStatsResponse]{retired(source, "", 2)})
	if _, _, _, ok := p.lookup("S1"); ok {
		t.Error("an owner-less tombstone placed the session")
	}
	p.fold("", []answer[server.ShardStatsResponse]{inventory(source, []string{"S1"}, nil), retired(follower, "", 2)})
	if primary, _, deposed, _ := p.lookup("S1"); primary != source || len(deposed) != 0 {
		t.Errorf("placement = %q deposed %v, want %s", primary, deposed, source)
	}
}
