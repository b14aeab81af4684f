package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/wal"
)

// postMatchLeg posts a binary leg body to /v1/match and returns the
// status and response body.
func postMatchLeg(t *testing.T, baseURL string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/match", wal.MatchLegContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// scopeFixture is one shard holding the same breathing trace under
// patient IDs that carry separator characters and unicode, and a leg
// query cut from the first patient's stream.
func scopeFixture(t *testing.T) (baseURL string, q wal.MatchLegRequest) {
	t.Helper()
	_, ts := newReplServer(t, Options{})
	for i, pid := range []string{"P01", "p,with,commas", "p with spaces", "p=eq:colon", "ünïcode"} {
		sid := "S" + strconv.Itoa(i)
		resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: pid, SessionID: sid})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %q status %d", pid, resp.StatusCode)
		}
		ingestBatches(t, ts.URL, sid, respSamples(t, 21, 40), 256)
	}
	plrResp, _ := getJSON[PLRResponse](t, ts.URL+"/v1/sessions/S0/plr")
	if len(plrResp.Vertices) < 8 {
		t.Fatalf("query stream too short: %d vertices", len(plrResp.Vertices))
	}
	return ts.URL, wal.MatchLegRequest{Seq: plrResp.Vertices[len(plrResp.Vertices)-6:], PatientID: "P01", SessionID: "S0"}
}

// v2Bound is a version-2 require bound: the least a shard had to hold
// of a patient before scoring it.
type v2Bound struct {
	pid               string
	streams, vertices uint64
}

// v2Leg encodes q as a version-2 leg did: the version-3 payload
// followed by the only, exclude and require lists of its scope.
func v2Leg(q wal.MatchLegRequest, only, exclude []string, require ...v2Bound) []byte {
	ids := func(b []byte, ss []string) []byte {
		b = binary.AppendUvarint(b, uint64(len(ss)))
		for _, s := range ss {
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		}
		return b
	}
	msg := ids(ids(wal.AppendMatchLegRequest(nil, q), only), exclude)
	msg = binary.AppendUvarint(msg, uint64(len(require)))
	for _, r := range require {
		msg = binary.AppendUvarint(append(binary.AppendUvarint(msg, uint64(len(r.pid))), r.pid...), r.streams)
		msg = binary.AppendUvarint(msg, r.vertices)
	}
	msg[4] = 2
	return resealLeg(msg)
}

// resealLeg recomputes a mutated leg's frame header (u32 payload length,
// u32 CRC-32C after the 6-byte magic and version), so the shard's
// decoder gets past the CRC to the field that was changed.
func resealLeg(msg []byte) []byte {
	const off = 6
	payload := msg[off+8:]
	binary.LittleEndian.PutUint32(msg[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(msg[off+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return msg
}

// refusedAs asserts a leg posted to the shard is a 400 whose error
// names the given leg version.
func refusedAs(t *testing.T, baseURL, name string, msg []byte, version int) {
	t.Helper()
	status, body := postMatchLeg(t, baseURL, msg)
	if want := "version " + strconv.Itoa(version); status != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Errorf("%s: status %d: %s; want 400 naming %s", name, status, body, want)
	}
}

// legEqualsJSON asserts the version-3 leg of q answers what the JSON
// route answers for the same query, and returns that answer.
func legEqualsJSON(t *testing.T, baseURL string, q wal.MatchLegRequest) MatchResponse {
	t.Helper()
	status, raw := postMatchLeg(t, baseURL, wal.AppendMatchLegRequest(nil, q))
	if status != http.StatusOK {
		t.Fatalf("v3 leg: status %d: %s", status, raw)
	}
	rep, err := wal.DecodeMatchLegReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]RemoteMatch, len(rep.Hits))
	for i, h := range rep.Hits {
		s := rep.Streams[h.Stream]
		got[i] = RemoteMatch{PatientID: s.PatientID, SessionID: s.SessionID, Start: int(h.Start), N: int(h.N),
			Relation: core.SourceRelation(s.Relation).String(), Distance: h.Distance, Weight: h.Weight}
	}
	resp := postJSON(t, baseURL+"/v1/match", MatchRequest{Seq: q.Seq, PatientID: q.PatientID, SessionID: q.SessionID, Now: q.Now, K: q.K})
	want := decode[MatchResponse](t, resp)
	if !reflect.DeepEqual(got, want.Matches) {
		t.Errorf("v3 leg answered %+v, the JSON route %+v", got, want.Matches)
	}
	return want
}

// TestMatchScopeHeaderRoundTrip: the name dates from when a leg's scope
// rode in X-Match-* headers, and then in the version-2 STMQ frame.
// Version 3 carries no scope: every shape of version-2 scope, with
// separator characters and unicode inside patient IDs, is a 400 naming
// version 2, and the version-3 leg of the same query is the JSON answer.
func TestMatchScopeHeaderRoundTrip(t *testing.T) {
	baseURL, q := scopeFixture(t)
	cases := []struct {
		only, exclude []string
		require       []v2Bound
	}{
		{},
		{exclude: []string{"P01", "p,with,commas", "p with spaces", "p=eq:colon"}},
		{only: []string{"P02", "ünïcode"}},
		{only: []string{"p,with,commas", "p=eq:colon"}, require: []v2Bound{{"p,with,commas", 1, 1}, {"p=eq:colon", 2, 117}}},
		{exclude: []string{"p with spaces"}, require: []v2Bound{{"ünïcode", 1, 0}, {"P06", 1, 0}}},
	}
	for i, c := range cases {
		refusedAs(t, baseURL, "v2 shape "+strconv.Itoa(i), v2Leg(q, c.only, c.exclude, c.require...), 2)
	}
	for _, k := range []int{0, 10} {
		q.K = k
		if want := legEqualsJSON(t, baseURL, q); len(want.Matches) == 0 {
			t.Errorf("k=%d: no matches; fixture proves nothing", k)
		}
	}
}

// TestMatchScopeHeaderParseErrors: the name dates from the X-Match-*
// header parser. A leg is refused with 400 before anything is scored
// when it is of another version — version 1, version 2 whether its
// scope is well formed or not — or when a version-2 scope rides under a
// version-3 header; the version-3 leg of the same query still answers.
func TestMatchScopeHeaderParseErrors(t *testing.T) {
	baseURL, q := scopeFixture(t)
	withRequire := v2Leg(q, nil, nil, v2Bound{"P01", 1, 1})
	v1 := wal.AppendMatchLegRequest(nil, q)
	v1[4] = 1
	relabelled := v2Leg(q, []string{"P01"}, nil)
	relabelled[4] = 3
	for name, c := range map[string]struct {
		msg     []byte
		version int
	}{
		"v2 only":                {v2Leg(q, []string{"P01"}, nil), 2},
		"v2 require cut short":   {resealLeg(withRequire[:len(withRequire)-1]), 2},
		"v2 only and exclude":    {v2Leg(q, []string{"P01"}, []string{"p,with,commas"}), 2},
		"version 1 (header era)": {resealLeg(v1), 1},
	} {
		refusedAs(t, baseURL, name, c.msg, c.version)
	}
	if status, body := postMatchLeg(t, baseURL, resealLeg(relabelled)); status != http.StatusBadRequest || !strings.Contains(string(body), "trailing bytes") {
		t.Errorf("v2 scope under a v3 header: status %d: %s; want 400 for trailing bytes", status, body)
	}
	legEqualsJSON(t, baseURL, q)
}

// TestMatchScopeRefusal: no shard refuses a patient any more, because
// no leg can ask it to. The version-2 legs that once drove refusal — a
// satisfiable bound, an unsatisfiable one, an exclude, a bound on a
// patient the shard does not hold — are each a 400 naming version 2;
// the version-3 leg scores every patient and is the JSON answer; and the
// JSON route ignores an X-Match-Exclude header left over from the
// header protocol.
func TestMatchScopeRefusal(t *testing.T) {
	_, ts := newReplServer(t, Options{})
	for _, pid := range []string{"PA", "PB"} {
		resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: pid, SessionID: "S-" + pid})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s status %d", pid, resp.StatusCode)
		}
		ingestBatches(t, ts.URL, "S-"+pid, respSamples(t, 21, 40), 256)
	}
	plrA, _ := getJSON[PLRResponse](t, ts.URL+"/v1/sessions/S-PA/plr")
	if len(plrA.Vertices) < 8 {
		t.Fatalf("query stream too short: %d vertices", len(plrA.Vertices))
	}
	q := wal.MatchLegRequest{Seq: plrA.Vertices[len(plrA.Vertices)-6:], PatientID: "PA", SessionID: "S-PA"}
	held := v2Bound{"PA", 1, uint64(len(plrA.Vertices))}
	over := held
	over.vertices += 10

	refusedAs(t, ts.URL, "satisfiable bound", v2Leg(q, []string{"PA", "PB"}, nil, held), 2)
	refusedAs(t, ts.URL, "unsatisfiable bound", v2Leg(q, []string{"PA", "PB"}, nil, over), 2)
	refusedAs(t, ts.URL, "exclude", v2Leg(q, nil, []string{"PA"}), 2)
	refusedAs(t, ts.URL, "bound on an unheld patient", v2Leg(q, nil, []string{"PA"}, v2Bound{"PZ", 1, 0}), 2)

	unscoped := legEqualsJSON(t, ts.URL, q)
	if !slices.ContainsFunc(unscoped.Matches, func(m RemoteMatch) bool { return m.PatientID == "PA" }) {
		t.Fatalf("no match from PA; fixture proves nothing: %+v", unscoped.Matches)
	}
	body, err := json.Marshal(MatchRequest{Seq: q.Seq, PatientID: q.PatientID, SessionID: q.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Match-Exclude", "PA")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if stale := decode[MatchResponse](t, resp); !reflect.DeepEqual(stale, unscoped) {
		t.Errorf("JSON match under X-Match-Exclude: %d matches, unscoped %d; want the unscoped answer",
			len(stale.Matches), len(unscoped.Matches))
	}
}

// TestShardStatsLinkSeqs: after a replicated ingest the primary's
// stats expose per-link shipped/acked sequence numbers, and the
// follower reports its applied high-water mark and the same stream
// length as the primary. The healthz payload carries the same per-
// session link detail.
func TestShardStatsLinkSeqs(t *testing.T) {
	_, replica := newReplServer(t, Options{})
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replica.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	ingestBatches(t, primary.URL, "S01", respSamples(t, 9, 30), 256)

	pStats, _ := getJSON[ShardStatsResponse](t, primary.URL+"/v1/shard/stats")
	if len(pStats.Sessions) != 1 {
		t.Fatalf("primary sessions = %+v", pStats.Sessions)
	}
	sess := pStats.Sessions[0]
	if sess.Vertices == 0 {
		t.Error("primary session reports zero vertices")
	}
	if len(sess.Links) != 1 {
		t.Fatalf("primary links = %+v, want one to the replica", sess.Links)
	}
	link := sess.Links[0]
	if link.Target != replica.URL {
		t.Errorf("link target %q, want %q", link.Target, replica.URL)
	}
	if link.ShippedSeq == 0 {
		t.Error("link shipped nothing after ingest")
	}
	if link.AckedSeq != link.ShippedSeq {
		t.Errorf("acked %d != shipped %d after synchronous flush", link.AckedSeq, link.ShippedSeq)
	}

	rStats, _ := getJSON[ShardStatsResponse](t, replica.URL+"/v1/shard/stats")
	if len(rStats.Replicas) != 1 {
		t.Fatalf("replica inventory = %+v", rStats.Replicas)
	}
	if got := rStats.Replicas[0].AppliedSeq; got != link.AckedSeq {
		t.Errorf("replica applied seq %d, primary acked %d", got, link.AckedSeq)
	}
	if got := rStats.Replicas[0].Vertices; got != sess.Vertices {
		t.Errorf("follower holds %d vertices, primary %d after a clean flush", got, sess.Vertices)
	}

	hz, _ := getJSON[HealthzResponse](t, primary.URL+"/v1/healthz")
	if hz.Replication == nil || len(hz.Replication.Sessions) != 1 {
		t.Fatalf("healthz replication sessions = %+v", hz.Replication)
	}
	hs := hz.Replication.Sessions[0]
	if hs.SessionID != "S01" || len(hs.Links) != 1 || hs.Links[0].AckedSeq != link.AckedSeq {
		t.Errorf("healthz session detail = %+v, want S01 with acked %d", hs, link.AckedSeq)
	}
}
