// Follower read path: what lets the gateway spread /v1/match scatter
// legs across replicas while keeping merged results byte-identical to
// a primary-only scatter.
//
// A leg's scope travels inside the leg itself (wal.MatchLegRequest:
// Only, Exclude, Require). A shard that cannot meet a Require bound
// refuses that patient (MatchLegReply.Refused) instead of answering
// with data staler than the query's max-lag tolerance; the gateway
// then retries the patient on another holder. Every scoped reply also
// reports the shard's local per-patient stream/vertex counts
// (MatchLegReply.Freshness) so the gateway's freshness tracker
// converges without extra polling. The public JSON route is never
// scoped.

package server

import (
	"sort"

	"stsmatch/internal/wal"
)

// Headers of the follower-read protocol.
const (
	HeaderPatientStreams  = "X-Patient-Streams"
	HeaderPatientVertices = "X-Patient-Vertices"
	HeaderReplicated      = "X-Replicated"
)

// PatientFreshness is a shard's holdings for one patient: how many
// streams it stores and their total vertex count. The gateway compares
// a follower's counts against the primary's to decide whether the
// follower is within a query's max-lag bound.
type PatientFreshness struct {
	Streams  int `json:"streams"`
	Vertices int `json:"vertices"`
}

// patientFreshnessLocked reports this shard's holdings for a patient.
// Callers hold s.mu (stream sets mutate under it).
func (s *Server) patientFreshnessLocked(pid string) PatientFreshness {
	p := s.db.Patient(pid)
	if p == nil {
		return PatientFreshness{}
	}
	fr := PatientFreshness{Streams: len(p.Streams)}
	for _, st := range p.Streams {
		fr.Vertices += st.Len()
	}
	return fr
}

// patientFreshness is patientFreshnessLocked behind the session lock.
func (s *Server) patientFreshness(pid string) PatientFreshness {
	s.lock()
	defer s.mu.Unlock()
	return s.patientFreshnessLocked(pid)
}

// matchScopeRestrict translates a leg's scope into the matcher's
// patient restrict set, deciding refusals against local holdings. It
// returns a nil restrict for an unscoped leg (full local scan), and a
// reply holding the refused patients and the local freshness of every
// patient named by the scope's Require/Only sets (piggybacked so the
// gateway's tracker converges from query traffic alone), both sorted
// by patient.
func (s *Server) matchScopeRestrict(lr wal.MatchLegRequest) (restrict map[string]bool, rep wal.MatchLegReply) {
	if len(lr.Only)+len(lr.Exclude)+len(lr.Require) == 0 {
		return nil, rep
	}
	require := make(map[string]wal.LegFreshness, len(lr.Require))
	for _, min := range lr.Require {
		require[min.PatientID] = min
	}
	fresh := make(map[string]PatientFreshness)
	restrict = make(map[string]bool)
	s.lock()
	admit := func(pid string) bool {
		min, bounded := require[pid]
		if !bounded {
			return true
		}
		fr := s.patientFreshnessLocked(pid)
		fresh[pid] = fr
		if uint64(fr.Streams) < min.Streams || uint64(fr.Vertices) < min.Vertices {
			rep.Refused = append(rep.Refused, pid)
			return false
		}
		return true
	}
	if len(lr.Only) > 0 {
		for _, pid := range lr.Only {
			if _, bounded := require[pid]; !bounded {
				fresh[pid] = s.patientFreshnessLocked(pid)
			}
			if admit(pid) {
				restrict[pid] = true
			}
		}
	} else {
		excluded := make(map[string]bool, len(lr.Exclude))
		for _, pid := range lr.Exclude {
			excluded[pid] = true
		}
		for _, p := range s.db.Patients() {
			if pid := p.Info.ID; !excluded[pid] && admit(pid) {
				restrict[pid] = true
			}
		}
		// Require bounds for patients this shard does not hold at all
		// still produce a refusal (admit already recorded holders).
		for pid := range require {
			if _, seen := fresh[pid]; !seen {
				fresh[pid] = s.patientFreshnessLocked(pid)
				rep.Refused = append(rep.Refused, pid)
			}
		}
	}
	s.mu.Unlock()
	sort.Strings(rep.Refused)
	for pid, fr := range fresh {
		rep.Freshness = append(rep.Freshness, wal.LegFreshness{PatientID: pid, Streams: uint64(fr.Streams), Vertices: uint64(fr.Vertices)})
	}
	sort.Slice(rep.Freshness, func(a, b int) bool { return rep.Freshness[a].PatientID < rep.Freshness[b].PatientID })
	return restrict, rep
}
