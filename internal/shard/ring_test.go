package shard

import (
	"fmt"
	"strings"
	"testing"
)

func TestRingDeterministicAndConsistent(t *testing.T) {
	a := NewRing(64)
	b := NewRing(64)
	nodes := []string{"http://s1", "http://s2", "http://s3"}
	for _, n := range nodes {
		a.Add(n)
	}
	// Insertion order must not change the layout.
	b.Add(nodes[2])
	b.Add(nodes[0])
	b.Add(nodes[1])
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("P%04d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("layout depends on insertion order for key %s", key)
		}
	}
	// Lookups are stable.
	if a.Owner("P42") != a.Owner("P42") {
		t.Error("owner lookup not stable")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultVnodes)
	nodes := []string{"http://s1", "http://s2", "http://s3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("P%05d", i))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		// With 128 vnodes per node, shares stay well within 2x of the
		// fair 1/3.
		if share < 1.0/6 || share > 2.0/3 {
			t.Errorf("node %s owns %.1f%% of the keyspace (counts %v)", n, 100*share, counts)
		}
	}
}

func TestRingBalanceSequentialKeys(t *testing.T) {
	// Patient IDs are short and sequential ("P001", "P002", ...). Raw
	// FNV-1a hashes such keys to adjacent ring positions, piling them
	// all onto one arc; the avalanche finalizer must spread them.
	r := NewRing(DefaultVnodes)
	nodes := []string{"http://127.0.0.1:33341", "http://127.0.0.1:33343", "http://127.0.0.1:33345"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 300
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("P%03d", i))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 1.0/6 || share > 2.0/3 {
			t.Errorf("node %s owns %.1f%% of sequential keys (counts %v)", n, 100*share, counts)
		}
	}
}

func TestRingMinimalReshuffle(t *testing.T) {
	r := NewRing(DefaultVnodes)
	nodes := []string{"http://s1", "http://s2", "http://s3", "http://s4"}
	for _, n := range nodes {
		r.Add(n)
	}
	const keys = 5000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("P%05d", i))
	}
	r = ringOf(nodes[:3]...) // without s4
	moved, lost := 0, 0
	for i := range before {
		after := r.Owner(fmt.Sprintf("P%05d", i))
		if before[i] == "http://s4" {
			lost++
			continue // had to move
		}
		if after != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed node moved (consistent hashing must only remap the removed node's keys)", moved)
	}
	if lost == 0 {
		t.Error("removed node owned no keys — balance test should have caught this")
	}
}

// ringOf builds a ring of the given backends, added in order.
func ringOf(nodes ...string) *Ring {
	r := NewRing(DefaultVnodes)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// ownerKey flattens a replica set for comparison.
func ownerKey(owners []string) string {
	return strings.Join(owners, "|")
}

// TestRingReplicatedPlacement is the table-driven placement suite for
// replication factors 1-3: replica sets must be distinct backends,
// adding/removing a backend must move only the arcs that gain/lose
// that backend, eject-and-return must restore the exact layout, and
// per-backend load (counting every replica a backend holds) must stay
// within 1.25x of the mean over 10k synthetic patient IDs.
func TestRingReplicatedPlacement(t *testing.T) {
	nodes := []string{"http://s1", "http://s2", "http://s3", "http://s4", "http://s5"}
	const keys = 10000
	keyOf := func(i int) string { return fmt.Sprintf("P%05d", i) }

	for _, rf := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("R%d", rf), func(t *testing.T) {
			r := NewRing(DefaultVnodes)
			for _, n := range nodes {
				r.Add(n)
			}

			// Distinctness, consistency with Owner, and balance.
			counts := map[string]int{}
			before := make([]string, keys)
			for i := 0; i < keys; i++ {
				owners := r.Owners(keyOf(i), rf)
				if len(owners) != rf {
					t.Fatalf("key %s: %d owners, want %d", keyOf(i), len(owners), rf)
				}
				if owners[0] != r.Owner(keyOf(i)) {
					t.Fatalf("key %s: Owners[0] %s != Owner %s", keyOf(i), owners[0], r.Owner(keyOf(i)))
				}
				seen := map[string]bool{}
				for _, o := range owners {
					if seen[o] {
						t.Fatalf("key %s: duplicate backend %s in replica set %v", keyOf(i), o, owners)
					}
					seen[o] = true
					counts[o]++
				}
				before[i] = ownerKey(owners)
			}
			mean := float64(keys*rf) / float64(len(nodes))
			for _, n := range nodes {
				if ratio := float64(counts[n]) / mean; ratio >= 1.25 {
					t.Errorf("backend %s holds %.0f%% of the mean load (counts %v)", n, 100*ratio, counts)
				}
			}

			// Adding a backend may only change replica sets that now
			// include it.
			const added = "http://s6"
			r.Add(added)
			for i := 0; i < keys; i++ {
				after := r.Owners(keyOf(i), rf)
				if ownerKey(after) == before[i] {
					continue
				}
				has := false
				for _, o := range after {
					if o == added {
						has = true
					}
				}
				if !has {
					t.Fatalf("key %s: replica set moved %s -> %v without involving the added backend",
						keyOf(i), before[i], after)
				}
			}

			// The same backends added in the opposite order give the
			// same layout (it is deterministic, not history-dependent).
			reversed := []string{added}
			for i := len(nodes) - 1; i >= 0; i-- {
				reversed = append(reversed, nodes[i])
			}
			rev := ringOf(reversed...)
			for i := 0; i < keys; i++ {
				if got, want := ownerKey(rev.Owners(keyOf(i), rf)), ownerKey(r.Owners(keyOf(i), rf)); got != want {
					t.Fatalf("key %s: layout %s in reverse order, want %s", keyOf(i), got, want)
				}
			}

			// Removing a backend may only change replica sets that held
			// it.
			const removed = "http://s3"
			r = ringOf("http://s1", "http://s2", "http://s4", "http://s5")
			for i := 0; i < keys; i++ {
				after := ownerKey(r.Owners(keyOf(i), rf))
				if after == before[i] {
					continue
				}
				if !strings.Contains(before[i], removed) {
					t.Fatalf("key %s: replica set moved %s -> %s without having held the removed backend",
						keyOf(i), before[i], after)
				}
			}
		})
	}
}

func TestRingOwnersBounds(t *testing.T) {
	r := NewRing(8)
	if got := r.Owners("P1", 2); got != nil {
		t.Errorf("empty ring Owners = %v, want nil", got)
	}
	r.Add("http://s1")
	r.Add("http://s2")
	if got := r.Owners("P1", 0); got != nil {
		t.Errorf("n=0 Owners = %v, want nil", got)
	}
	// Asking for more replicas than backends yields them all, once.
	got := r.Owners("P1", 5)
	if len(got) != 2 || got[0] == got[1] {
		t.Errorf("Owners(n>len) = %v, want both backends once", got)
	}
}

func TestRingCovered(t *testing.T) {
	r := NewRing(DefaultVnodes)
	nodes := []string{"http://s1", "http://s2", "http://s3"}
	for _, n := range nodes {
		r.Add(n)
	}
	all := func(string) bool { return true }
	none := func(string) bool { return false }

	if r.Covered("http://s1", 1, all) {
		t.Error("replication factor 1 can never cover a dead backend")
	}
	if !r.Covered("http://s1", 2, all) {
		t.Error("R=2 with every successor healthy must cover")
	}
	if r.Covered("http://s1", 2, none) {
		t.Error("no healthy successors cannot cover")
	}
	// A backend not in the ring owns nothing, so it is vacuously
	// covered.
	if !r.Covered("http://nope", 2, none) {
		t.Error("non-member backend must be vacuously covered")
	}
	// With only the dead backend's successor set reduced to one other
	// node, coverage follows that node's health exactly.
	only2 := func(u string) bool { return u == "http://s2" }
	cov := r.Covered("http://s1", 3, only2)
	// At R=3 every arc of s1 has both s2 and s3 as successors, so s2
	// alone suffices.
	if !cov {
		t.Error("R=3 with one healthy successor must cover")
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing(0)
	if r.Owner("P1") != "" {
		t.Error("empty ring returned an owner")
	}
	r.Add("http://s1")
	r.Add("http://s1") // idempotent
	if len(r.nodes) != 1 || len(r.hashes) != r.replicas {
		t.Errorf("%d nodes, %d hashes after adding one node twice, want 1, %d", len(r.nodes), len(r.hashes), r.replicas)
	}
	if r.Owner("anything") != "http://s1" {
		t.Error("single-node ring must own every key")
	}
}

// TestRingMovedKeysMinimalMovement is the arc-diff contract behind
// elastic rebalancing: a membership change must move exactly the keys
// whose primary arc changed hands — every moved key's new primary is
// determined by the change, every unmoved key keeps its primary, and
// the moved fraction stays near the theoretical 1/N.
func TestRingMovedKeysMinimalMovement(t *testing.T) {
	base := []string{"http://s1", "http://s2", "http://s3"}
	keys := make([]string, 0, 1000)
	for i := 0; i < 1000; i++ {
		keys = append(keys, fmt.Sprintf("P%04d", i))
	}
	cases := []struct {
		name  string
		after []string
		// wantNewPrimary, when non-empty, is the only allowed new
		// primary for every moved key (the added node); otherwise the
		// moved keys' old primary must be the removed node.
		wantNewPrimary string
		wantOldPrimary string
		maxFraction    float64
	}{
		{
			name:           "add s4",
			after:          []string{"http://s1", "http://s2", "http://s3", "http://s4"},
			wantNewPrimary: "http://s4",
			maxFraction:    0.40, // ~1/4 expected
		},
		{
			name:           "remove s2",
			after:          []string{"http://s1", "http://s3"},
			wantOldPrimary: "http://s2",
			maxFraction:    0.50, // ~1/3 expected
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, after := ringOf(base...), ringOf(tc.after...)

			moved := map[string]bool{}
			for _, k := range MovedKeys(before, after, keys, 2) {
				moved[k] = true
			}
			if len(moved) == 0 {
				t.Fatal("membership change moved no keys")
			}
			if frac := float64(len(moved)) / float64(len(keys)); frac > tc.maxFraction {
				t.Errorf("moved %.0f%% of keys, want <= %.0f%% (not minimal)",
					frac*100, tc.maxFraction*100)
			}
			for _, k := range keys {
				bp, ap := before.Owner(k), after.Owner(k)
				if moved[k] {
					if tc.wantNewPrimary != "" && ap != tc.wantNewPrimary {
						t.Fatalf("moved key %s: new primary %s, want %s", k, ap, tc.wantNewPrimary)
					}
					if tc.wantOldPrimary != "" && bp != tc.wantOldPrimary {
						t.Fatalf("moved key %s: old primary %s, want %s", k, bp, tc.wantOldPrimary)
					}
					if bp == ap {
						t.Fatalf("key %s reported moved but primary unchanged (%s)", k, bp)
					}
					continue
				}
				if bp != ap {
					t.Fatalf("key %s not reported moved but primary changed %s -> %s", k, bp, ap)
				}
			}
		})
	}
}
