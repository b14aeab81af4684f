package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"

	"stsmatch/internal/core"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
	"stsmatch/internal/wal"
)

// MatchRequest is a serialized similarity query, as POSTed by the
// sharding gateway (or any remote caller) to /v1/match. The sequence
// carries its provenance so the shard can classify every candidate's
// source relation exactly as a local search would.
type MatchRequest struct {
	Seq plr.Sequence `json:"seq"`
	// PatientID/SessionID identify the stream the query was taken
	// from; empty for ad-hoc queries (every candidate is then
	// other-patient).
	PatientID string `json:"patientId,omitempty"`
	SessionID string `json:"sessionId,omitempty"`
	// Now overrides the query's current time (defaults to the last
	// vertex's T). Same-session candidates must end strictly before
	// the query begins regardless.
	Now *float64 `json:"now,omitempty"`
	// K > 0 requests the k nearest neighbours ignoring the distance
	// threshold (Matcher.TopK); K == 0 returns every match within the
	// threshold (Matcher.FindSimilar).
	K int `json:"k,omitempty"`
	// MaxLag is the number of vertices of replication lag the client
	// tolerates per patient. It is validated (a negative value is a
	// 400) and otherwise changes nothing: every answer is the exact
	// lag-0 one, which meets any tolerance.
	MaxLag int `json:"maxLag,omitempty"`
}

// Validate reports why a decoded request cannot be searched for, in the
// words a client sees with the 400.
func (req MatchRequest) Validate() error {
	if len(req.Seq) < 2 {
		return errors.New("query sequence needs at least 2 vertices")
	}
	if err := req.Seq.Validate(); err != nil {
		return fmt.Errorf("invalid query sequence: %w", err)
	}
	if req.K < 0 {
		return fmt.Errorf("k must be >= 0, got %d", req.K)
	}
	if req.MaxLag < 0 {
		return fmt.Errorf("maxLag must be >= 0, got %d", req.MaxLag)
	}
	return nil
}

// RemoteMatch is one match in wire form: the stream is named rather
// than referenced, and the relation/weight are resolved so a merging
// gateway needs no knowledge of the shard's parameters.
type RemoteMatch struct {
	PatientID string  `json:"patientId"`
	SessionID string  `json:"sessionId"`
	Start     int     `json:"start"`
	N         int     `json:"n"`
	Relation  string  `json:"relation"`
	Distance  float64 `json:"distance"`
	Weight    float64 `json:"weight"`
}

// MatchResponse is the shard-local result set, sorted by ascending
// distance. Profile is present only for ?debug=profile requests: the
// shard's span tree for this query (handler root, matcher.search, and
// the per-stage funnel spans with candidate counts).
type MatchResponse struct {
	Matches []RemoteMatch `json:"matches"`
	Profile *obs.Profile  `json:"profile,omitempty"`
}

// decodeMatchRequest decodes a /v1/match body in either codec. Both
// decoders copy what they keep out of body.
func decodeMatchRequest(body []byte, leg bool) (MatchRequest, error) {
	if leg {
		lr, err := wal.DecodeMatchLegRequest(body)
		return MatchRequest{Seq: lr.Seq, PatientID: lr.PatientID, SessionID: lr.SessionID, Now: lr.Now, K: lr.K}, err
	}
	return DecodeMatchRequest(body)
}

// DecodeMatchRequest decodes a public /v1/match body, on a shard and on
// the gateway alike. The shape json.Marshal gives a MatchRequest takes
// the scanner below; anything else is json.Unmarshal's to accept or
// refuse, so the accepted language and every decoded value are what
// they were when json.Unmarshal was the only decoder.
func DecodeMatchRequest(body []byte) (MatchRequest, error) {
	if req, ok := scanMatchRequest(body); ok {
		return req, nil
	}
	var req MatchRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// maxScanInt bounds k and maxLag on the scanner's path; a larger value
// is json.Unmarshal's, which takes any int.
const maxScanInt = 1 << 40

// scanMatchRequest decodes exactly what json.Marshal makes of a
// MatchRequest,
//
//	{"seq":[{"t":N,"pos":[N,...],"state":S},...],"patientId":"P","sessionId":"P","now":N,"k":I,"maxLag":I}
//
// with every member after seq optional but in that order, JSON
// whitespace between tokens, N as scanSamples takes it, S an integer of
// at most 255, I one of at most maxScanInt, and P a string of printable
// ASCII with no escape. Like scanSamples it declines everything else —
// another key order, case or a repeated key, null, an escape or a byte
// outside ASCII, a sign or a float spelling for an integer, trailing
// bytes — and every Pos shares one backing array.
func scanMatchRequest(data []byte) (req MatchRequest, ok bool) {
	sc := jsonScanner{b: data}
	if !sc.token('{') || !sc.literal(`"seq"`) || !sc.token(':') || !sc.token('[') {
		return MatchRequest{}, false
	}
	// On the accepted shape n vertices of d positions each and f members
	// after seq make n+1 '{', 3n+1+f ':' and n(d+2)-1+f ',', which sizes
	// both allocations exactly (scanCap, as in scanSamples).
	n := bytes.Count(data, []byte{'{'}) - 1
	positions := bytes.Count(data, []byte{','}) + 2 + n - bytes.Count(data, []byte{':'})
	seq := make(plr.Sequence, 0, scanCap(n))
	backing := make([]float64, 0, scanCap(positions))
	for more := !sc.token(']'); more; {
		var v plr.Vertex
		if !sc.token('{') || !sc.literal(`"t"`) || !sc.token(':') || !sc.number(&v.T) ||
			!sc.token(',') || !sc.literal(`"pos"`) || !sc.token(':') || !sc.token('[') {
			return MatchRequest{}, false
		}
		first := len(backing)
		if backing, ok = sc.numbers(backing); !ok {
			return MatchRequest{}, false
		}
		v.Pos = backing[first:len(backing):len(backing)]
		var state int
		if !sc.token(',') || !sc.literal(`"state"`) || !sc.token(':') || !sc.smallInt(&state, math.MaxUint8) || !sc.token('}') {
			return MatchRequest{}, false
		}
		v.State = plr.State(state)
		seq = append(seq, v)
		if more = !sc.token(']'); more && !sc.token(',') {
			return MatchRequest{}, false
		}
	}
	req.Seq = seq
	if sc.member(`"patientId"`) && !sc.plainString(&req.PatientID) ||
		sc.member(`"sessionId"`) && !sc.plainString(&req.SessionID) {
		return MatchRequest{}, false
	}
	if sc.member(`"now"`) {
		if req.Now = new(float64); !sc.number(req.Now) {
			return MatchRequest{}, false
		}
	}
	if sc.member(`"k"`) && !sc.smallInt(&req.K, maxScanInt) ||
		sc.member(`"maxLag"`) && !sc.smallInt(&req.MaxLag, maxScanInt) ||
		!sc.token('}') || !sc.end() {
		return MatchRequest{}, false
	}
	return req, true
}

// handleMatch runs a similarity search for a serialized query. Like
// prediction, the search runs on a pooled matcher outside the session
// lock, so remote queries never block ingestion.
//
// The route speaks two codecs, told apart by Content-Type: the public
// JSON (MatchRequest in, MatchResponse out), and the binary leg format
// of internal/wal that the gateway's scatter legs use. Validation and
// the search are one path.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	leg := r.Header.Get("Content-Type") == wal.MatchLegContentType
	buf, err := s.readBody(w, r)
	if err != nil {
		httpError(w, bodyErrCode(err), fmt.Errorf("decoding match request: %w", err))
		return
	}
	req, err := decodeMatchRequest(buf.Bytes(), leg)
	releaseBody(buf)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding match request: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q := core.NewQuery(req.Seq, req.PatientID, req.SessionID)
	if req.Now != nil {
		q.Now = *req.Now
	}
	matcher := s.matchers.Get().(*core.Matcher)
	defer s.matchers.Put(matcher)
	var matches []core.Match
	if req.K > 0 {
		matches, err = matcher.TopKCtx(r.Context(), q, req.K, nil)
	} else {
		matches, err = matcher.FindSimilarCtx(r.Context(), q, nil)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var profile *obs.Profile
	if r.URL.Query().Get("debug") == "profile" {
		// Inline "explain": serialize this query's span tree. The
		// handler root span is still open, so it reports elapsed-so-far
		// and is marked inProgress.
		if id, spans := obs.SnapshotTrace(r.Context()); id != "" {
			profile = &obs.Profile{TraceID: id, Root: obs.BuildTree(spans)}
		}
	}
	if leg {
		writeMatchLeg(w, matches, profile)
		return
	}
	writeMatches(w, matches, profile)
}

// writeMatches answers the JSON route with the bytes writeJSON gives the
// MatchResponse, appended without reflection unless a profile rides
// along or a value needs encoding/json.
func writeMatches(w http.ResponseWriter, matches []core.Match, profile *obs.Profile) {
	if profile == nil {
		a := NewJSONAnswer()
		a.Raw("{")
		a.coreMatches(matches)
		a.Raw("}\n")
		if a.Write(w, http.StatusOK) {
			return
		}
	}
	out := make([]RemoteMatch, len(matches))
	for i, mt := range matches {
		out[i] = RemoteMatch{
			PatientID: mt.Stream.PatientID,
			SessionID: mt.Stream.SessionID,
			Start:     mt.Start,
			N:         mt.N,
			Relation:  mt.Relation.String(),
			Distance:  mt.Distance,
			Weight:    mt.Weight,
		}
	}
	writeJSON(w, http.StatusOK, MatchResponse{Matches: out, Profile: profile})
}

// writeMatchLeg answers a binary leg: the matches as hits over a table
// of the streams they fall in, in the order the matcher ranked them.
func writeMatchLeg(w http.ResponseWriter, matches []core.Match, profile *obs.Profile) {
	rep := wal.MatchLegReply{Hits: make([]wal.LegHit, len(matches))}
	index := make(map[*store.Stream]uint32)
	for i, mt := range matches {
		si, ok := index[mt.Stream]
		if !ok {
			si = uint32(len(rep.Streams))
			index[mt.Stream] = si
			rep.Streams = append(rep.Streams, wal.LegStream{
				PatientID: mt.Stream.PatientID,
				SessionID: mt.Stream.SessionID,
				Relation:  uint8(mt.Relation),
			})
		}
		rep.Hits[i] = wal.LegHit{Stream: si, Start: uint32(mt.Start), N: uint32(mt.N), Distance: mt.Distance, Weight: mt.Weight}
	}
	if profile != nil {
		// The span tree crosses as the JSON the public route embeds: the
		// codec carries it opaquely and only a profiled query pays for it.
		rep.Profile, _ = json.Marshal(profile) // a tree of plain values cannot fail to marshal
	}
	w.Header().Set("Content-Type", wal.MatchLegContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(wal.AppendMatchLegReply(nil, rep)) //nolint:errcheck
}

// ShardSession describes one open ingestion session in shard-local
// stats.
type ShardSession struct {
	SessionID string `json:"sessionId"`
	PatientID string `json:"patientId"`
	Samples   int    `json:"samples"`
	// Vertices is the session stream's current length.
	Vertices int `json:"vertices"`
	// Links reports, for a primary session, each replica link's
	// assigned/acked sequence numbers (see ReplLinkStatus); absent on
	// unreplicated sessions and on Replicas entries.
	Links []ReplLinkStatus `json:"links,omitempty"`
	// AppliedSeq is, for a Replicas entry, the highest shipping
	// sequence number this follower has contiguously applied.
	AppliedSeq uint64 `json:"appliedSeq,omitempty"`
}

// ShardStatsResponse is the shard-local inventory served at
// /v1/shard/stats: enough for a gateway to aggregate database totals
// and to rediscover which shard owns an open session after a restart.
type ShardStatsResponse struct {
	Patients int            `json:"patients"`
	Streams  int            `json:"streams"`
	Vertices int            `json:"vertices"`
	Sessions []ShardSession `json:"sessions"`
	// Replicas lists the sessions this shard follows as a replica:
	// failover candidates, not primaries — a gateway rediscovering
	// placement must route to a Sessions entry, never a Replicas one.
	Replicas []ShardSession `json:"replicas,omitempty"`
}

func (s *Server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	s.lock()
	sessions := make([]ShardSession, 0, len(s.sessions))
	for sid, sess := range s.sessions {
		entry := ShardSession{
			SessionID: sid,
			PatientID: sess.patientID,
			Samples:   sess.samples,
			Vertices:  sess.stream.Len(),
		}
		if sess.repl != nil {
			entry.Links = sess.repl.linkStatuses()
		}
		sessions = append(sessions, entry)
	}
	replicas := make([]ShardSession, 0, len(s.replicas))
	for sid, rs := range s.replicas {
		entry := ShardSession{
			SessionID: sid,
			PatientID: rs.patientID,
			Samples:   int(rs.samples),
		}
		if rs.stream != nil {
			entry.Vertices = rs.stream.Len()
		}
		if rs.cursor.Next > 0 {
			entry.AppliedSeq = rs.cursor.Next - 1
		}
		replicas = append(replicas, entry)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(a, b int) bool { return sessions[a].SessionID < sessions[b].SessionID })
	sort.Slice(replicas, func(a, b int) bool { return replicas[a].SessionID < replicas[b].SessionID })
	writeJSON(w, http.StatusOK, ShardStatsResponse{
		Patients: s.db.NumPatients(),
		Streams:  len(s.db.Streams()),
		Vertices: s.db.NumVertices(),
		Sessions: sessions,
		Replicas: replicas,
	})
}
