// The gather half of scatter-gather: every leg of a query answers with
// hits over its own stream table (internal/wal's leg format), and the
// gateway merges them over one table into the global order, building a
// public RemoteMatch only for the hits that survive.

package shard

import (
	"cmp"
	"slices"

	"stsmatch/internal/core"
	"stsmatch/internal/server"
	"stsmatch/internal/wal"
)

// hitStream names the stream a hit falls in, with the relation in its
// public spelling.
type hitStream struct {
	patientID, sessionID, relation string
}

// hitMerger gathers the hits of every leg of one query over one stream
// table and merges them into the global order.
type hitMerger struct {
	streams []hitStream
	index   map[hitStream]uint32
	hits    []wal.LegHit // Stream indexes streams
}

// stream returns s's position in the merger's table, adding it if new.
func (m *hitMerger) stream(s hitStream) uint32 {
	id, ok := m.index[s]
	if !ok {
		if m.index == nil {
			m.index = make(map[hitStream]uint32)
		}
		id = uint32(len(m.streams))
		m.index[s] = id
		m.streams = append(m.streams, s)
	}
	return id
}

// addLeg takes over a leg's hits, re-pointed at the merger's table.
func (m *hitMerger) addLeg(reply *wal.MatchLegReply) {
	ids := make([]uint32, len(reply.Streams))
	for i, s := range reply.Streams {
		ids[i] = m.stream(hitStream{s.PatientID, s.SessionID, core.SourceRelation(s.Relation).String()})
	}
	m.hits = slices.Grow(m.hits, len(reply.Hits))
	for _, h := range reply.Hits {
		h.Stream = ids[h.Stream]
		m.hits = append(m.hits, h)
	}
}

// merged returns the global result: ascending distance, with a
// deterministic (patient, session, start) tie-break so equal-distance
// matches do not flap between requests. Identical hits are dropped — a
// replicated stream is scored independently by its primary and each
// follower, and those duplicates would otherwise crowd out genuine
// results under top-k truncation. k > 0 truncates to the global top-k.
// Streams are ranked by name once, so ordering two hits compares
// numbers only, and a RemoteMatch is built only for a survivor.
func (m *hitMerger) merged(k int) []server.RemoteMatch {
	byName := make([]uint32, len(m.streams))
	for i := range byName {
		byName[i] = uint32(i)
	}
	slices.SortFunc(byName, func(a, b uint32) int {
		x, y := m.streams[a], m.streams[b]
		return cmp.Or(cmp.Compare(x.patientID, y.patientID), cmp.Compare(x.sessionID, y.sessionID),
			cmp.Compare(x.relation, y.relation))
	})
	rank := make([]uint32, len(m.streams))
	for r, id := range byName {
		rank[id] = uint32(r)
	}
	hits := m.hits
	for i := range hits {
		hits[i].Stream = rank[hits[i].Stream]
	}
	slices.SortFunc(hits, func(x, y wal.LegHit) int {
		return cmp.Or(cmp.Compare(x.Distance, y.Distance), cmp.Compare(x.Stream, y.Stream),
			cmp.Compare(x.Start, y.Start), cmp.Compare(x.N, y.N), cmp.Compare(x.Weight, y.Weight))
	})
	hits = slices.Compact(hits)
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	out := make([]server.RemoteMatch, len(hits))
	for i, h := range hits {
		s := m.streams[byName[h.Stream]]
		out[i] = server.RemoteMatch{
			PatientID: s.patientID,
			SessionID: s.sessionID,
			Start:     int(h.Start),
			N:         int(h.N),
			Relation:  s.relation,
			Distance:  h.Distance,
			Weight:    h.Weight,
		}
	}
	return out
}

// MergeMatches merges shard-local result lists into the global order
// (see hitMerger.merged): what the gateway does with its legs' hits,
// for callers that hold matches in their public form.
func MergeMatches(lists [][]server.RemoteMatch, k int) []server.RemoteMatch {
	var m hitMerger
	for _, l := range lists {
		for _, rm := range l {
			m.hits = append(m.hits, wal.LegHit{
				Stream:   m.stream(hitStream{rm.PatientID, rm.SessionID, rm.Relation}),
				Start:    uint32(rm.Start),
				N:        uint32(rm.N),
				Distance: rm.Distance,
				Weight:   rm.Weight,
			})
		}
	}
	return m.merged(k)
}
