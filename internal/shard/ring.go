// Package shard implements horizontal scale-out for the stream
// database: a consistent-hash ring that partitions patients across N
// streamd backends, a production-shaped HTTP client pool (connection
// reuse, timeouts, bounded retries with jittered backoff, active
// health checking), and a gateway that routes session traffic to the
// owning shard while scatter-gathering similarity queries across every
// healthy backend and merging them into an exact global result.
//
// The partition key is the patient ID: the paper's hierarchical
// database (database -> patients -> streams -> vertices) never shares
// state across patients on the write path, so a patient's sessions all
// land on one shard and ingestion scales linearly. Similarity search
// intentionally crosses patients (other-patient candidates carry
// weight w_op), so reads fan out to all shards and merge centrally;
// because every shard scores its candidates with the same Params and
// the same query provenance, a merge by ascending weighted distance is
// exactly the result a single node holding the union would produce.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVnodes is the default number of virtual nodes per backend.
// 128 vnodes keep the keyspace imbalance across a handful of backends
// within a few percent while the ring stays tiny.
const DefaultVnodes = 128

// Ring is a consistent-hash ring with virtual nodes. Keys (patient
// IDs) map to the first vnode clockwise from the key's hash, so adding
// or removing one backend remaps only ~1/N of the keyspace. All
// methods are safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	hashes   []uint64          // sorted vnode hashes
	owner    map[uint64]string // vnode hash -> node
	nodes    map[string]struct{}
}

// NewRing creates an empty ring with the given number of virtual
// nodes per backend (<= 0 selects DefaultVnodes).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultVnodes
	}
	return &Ring{
		replicas: replicas,
		owner:    make(map[uint64]string),
		nodes:    make(map[string]struct{}),
	}
}

// hashKey is FNV-1a 64 followed by a 64-bit avalanche finalizer:
// deterministic across processes and platforms, so every gateway
// instance agrees on the layout without coordination. Raw FNV-1a does
// not avalanche on short, similar keys — sequential patient IDs like
// "P001".."P099" hash to adjacent ring positions and pile onto a
// single arc — so the finalizer (MurmurHash3 fmix64) diffuses every
// input bit across the output.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// vnodeKey names the i-th virtual node of a backend.
func vnodeKey(node string, i int) string {
	return fmt.Sprintf("%s#%d", node, i)
}

// Add inserts a backend's virtual nodes. Adding an existing node is a
// no-op. When two vnodes hash identically (vanishingly rare), the
// lexically smaller node keeps the slot so the layout stays
// deterministic regardless of insertion order.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		h := hashKey(vnodeKey(node, i))
		if prev, ok := r.owner[h]; ok {
			if node < prev {
				r.owner[h] = node
			}
			continue
		}
		r.owner[h] = node
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(a, b int) bool { return r.hashes[a] < r.hashes[b] })
}

// Owner returns the backend owning the given key, or "" when the ring
// is empty.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	h := hashKey(key)
	// First vnode clockwise of h, wrapping to the start.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[r.hashes[i]]
}

// Owners returns the first n distinct backends clockwise from the
// key's hash: index 0 is the primary (identical to Owner), the rest
// are successor replicas. Fewer than n backends in the ring yields
// them all. The walk skips vnodes of already-collected backends, so
// replica sets are always distinct nodes.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		node := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if _, dup := seen[node]; dup {
			continue
		}
		seen[node] = struct{}{}
		out = append(out, node)
	}
	return out
}

// Covered reports whether every arc whose primary is node also has,
// among its replicas-1 distinct clockwise successors, at least one
// backend for which ok returns true. A gateway uses this to decide
// whether losing node degrades scatter-gather results: with
// replication factor R, each of node's primary arcs is mirrored on its
// successors, so as long as one successor per arc is still answering,
// the merged result is complete. replicas <= 1 means unreplicated and
// therefore never covered.
func (r *Ring) Covered(node string, replicas int, ok func(string) bool) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if replicas <= 1 {
		return false
	}
	if _, in := r.nodes[node]; !in {
		return true // owns no arcs
	}
	for i, h := range r.hashes {
		if r.owner[h] != node {
			continue
		}
		// Keys on this arc have node as their first distinct owner;
		// walk the same successor sequence Owners would.
		covered := false
		seen := map[string]struct{}{node: {}}
		for j := 1; j < len(r.hashes) && len(seen) < replicas; j++ {
			n := r.owner[r.hashes[(i+j)%len(r.hashes)]]
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
			if ok(n) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// MovedKeys returns the keys (in input order) whose primary owner
// differs between two ring layouts — the minimal session set a
// membership change requires moving. Keys whose replica tail changed
// but whose primary stayed put are not returned: the migration
// protocol fixes the tail as part of any move, and a tail-only change
// converges through ordinary replication without a cutover.
func MovedKeys(before, after *Ring, keys []string, n int) []string {
	var out []string
	for _, k := range keys {
		b := before.Owners(k, n)
		a := after.Owners(k, n)
		if len(b) == 0 || len(a) == 0 {
			continue
		}
		if b[0] != a[0] {
			out = append(out, k)
		}
	}
	return out
}
