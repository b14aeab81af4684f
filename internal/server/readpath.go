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
//
// Separately, every response carries X-Store-Seq, the shard's
// mutation high-water mark: "<epoch>-<seq>" where epoch is a
// per-process start nonce (a restart must never repeat a token) and
// seq the store's monotone mutation counter. Two equal tokens bracket
// a quiescent store, which is what makes the gateway's result cache
// coherent without any invalidation protocol. The stamp direction
// differs by request kind: mutation acks stamp lazily at first write
// (post-mutation — the gateway may advance its tracked mark before
// acking the client), while /v1/match snapshots the token before
// scoring (pre-read — the token lower-bounds the data scored, so the
// gateway never binds a result to a key newer than its contents).

package server

import (
	"fmt"
	"net/http"
	"sort"

	"stsmatch/internal/wal"
)

// Headers of the follower-read protocol.
const (
	HeaderStoreSeq        = "X-Store-Seq"
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

// storeSeqToken renders this server's mutation high-water mark.
func (s *Server) storeSeqToken() string {
	return fmt.Sprintf("%d-%d", s.seqEpoch, s.db.MutationSeq())
}

// seqStamp wraps a handler so every response carries X-Store-Seq,
// evaluated lazily at first write: an ingest response then reflects
// the post-mutation counter, which is what lets the gateway advance
// its cached high-water mark before acknowledging the client.
//
// A handler that has already set the header wins: reads snapshot
// their token BEFORE touching the store (see handleMatch) because a
// read's token must lower-bound its data, while the mutation acks
// this lazy path exists for must reflect the post-mutation counter.
func (s *Server) seqStamp(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&seqWriter{ResponseWriter: w, srv: s}, r)
	})
}

type seqWriter struct {
	http.ResponseWriter
	srv     *Server
	stamped bool
}

func (w *seqWriter) stamp() {
	if !w.stamped {
		w.stamped = true
		if w.Header().Get(HeaderStoreSeq) == "" {
			w.Header().Set(HeaderStoreSeq, w.srv.storeSeqToken())
		}
	}
}

func (w *seqWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

func (w *seqWriter) Write(b []byte) (int, error) {
	w.stamp()
	return w.ResponseWriter.Write(b)
}

// Flush keeps SSE streaming (subscription events) working through the
// wrapper.
func (w *seqWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
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
