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

	"stsmatch/internal/wal"
)

// TestIngestFreshnessHeaders: ingest and create acks piggyback the
// patient's post-write holdings and the replication outcome.
func TestIngestFreshnessHeaders(t *testing.T) {
	_, replica := newReplServer(t, Options{})
	_, primary := newReplServer(t, Options{AdvertiseURL: "http://primary"})

	// Unreplicated session: X-Replicated: none.
	resp := postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P00", SessionID: "S00"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderReplicated); got != "none" {
		t.Errorf("unreplicated create X-Replicated = %q, want none", got)
	}

	// Replicated session: create and ingest report "full" after a clean
	// synchronous flush, with the patient's holdings alongside.
	resp = postJSON(t, primary.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{replica.URL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replicated create status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderReplicated); got != "full" {
		t.Errorf("replicated create X-Replicated = %q, want full", got)
	}

	resp = postJSON(t, primary.URL+"/v1/sessions/S01/samples", respSamples(t, 5, 20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderReplicated); got != "full" {
		t.Errorf("ingest X-Replicated = %q, want full", got)
	}
	if resp.Header.Get(HeaderPatientStreams) != "1" {
		t.Errorf("X-Patient-Streams = %q, want 1", resp.Header.Get(HeaderPatientStreams))
	}
	stats, _ := getJSON[ShardStatsResponse](t, primary.URL+"/v1/shard/stats")
	wantV := stats.Freshness["P01"].Vertices
	if wantV == 0 {
		t.Fatal("stats report no vertices for P01")
	}
	if got := resp.Header.Get(HeaderPatientVertices); got != strconv.Itoa(wantV) {
		t.Errorf("X-Patient-Vertices = %q, stats say %d", got, wantV)
	}
}

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
func scopeFixture(t *testing.T) (baseURL string, held []string, q wal.MatchLegRequest, holding map[string]PatientFreshness) {
	t.Helper()
	_, ts := newReplServer(t, Options{})
	held = []string{"P01", "p,with,commas", "p with spaces", "p=eq:colon", "ünïcode"}
	for i, pid := range held {
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
	stats, _ := getJSON[ShardStatsResponse](t, ts.URL+"/v1/shard/stats")
	q = wal.MatchLegRequest{Seq: plrResp.Vertices[len(plrResp.Vertices)-6:], PatientID: "P01", SessionID: "S0"}
	return ts.URL, held, q, stats.Freshness
}

// TestMatchScopeHeaderRoundTrip: every shape of scope reaches the shard
// intact, even with separator characters and unicode inside patient
// IDs, and the reply names the same IDs back. The name dates from when
// the scope rode in X-Match-* headers; it now rides in the STMQ frame
// (wal.TestMatchLegScopeCodec pins the codec), and this is the shard's
// end of that round trip.
func TestMatchScopeHeaderRoundTrip(t *testing.T) {
	baseURL, held, q, holding := scopeFixture(t)
	if holding["p,with,commas"].Vertices == 0 || holding["ünïcode"].Vertices == 0 {
		t.Fatalf("holdings = %+v", holding)
	}
	commas := holding["p,with,commas"]
	cases := []struct {
		only, exclude []string
		require       []wal.LegFreshness
	}{
		{},
		{exclude: []string{"P01", "p,with,commas", "p with spaces", "p=eq:colon"}},
		{only: []string{"P02", "ünïcode"}},
		{
			only: []string{"p,with,commas", "p=eq:colon"},
			require: []wal.LegFreshness{
				{PatientID: "p,with,commas", Streams: uint64(commas.Streams), Vertices: uint64(commas.Vertices)},
				{PatientID: "p=eq:colon", Streams: 2, Vertices: 117},
			},
		},
		{
			exclude: []string{"p with spaces"},
			require: []wal.LegFreshness{{PatientID: "ünïcode", Streams: 1}, {PatientID: "P06", Streams: 1}},
		},
	}
	for i, c := range cases {
		lq := q
		lq.Only, lq.Exclude, lq.Require = c.only, c.exclude, c.require
		status, body := postMatchLeg(t, baseURL, wal.AppendMatchLegRequest(nil, lq))
		if status != http.StatusOK {
			t.Fatalf("case %d: status %d: %s", i, status, body)
		}
		rep, err := wal.DecodeMatchLegReply(body)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}

		// What the shard must have seen: the refusals its holdings imply,
		// its holdings for every patient the scope named, and hits from
		// exactly the held patients the scope admits.
		var wantRefused []string
		named := map[string]bool{}
		refused := map[string]bool{}
		for _, pid := range c.only {
			named[pid] = true
		}
		for _, min := range c.require {
			named[min.PatientID] = true
			if fr := holding[min.PatientID]; uint64(fr.Streams) < min.Streams || uint64(fr.Vertices) < min.Vertices {
				wantRefused = append(wantRefused, min.PatientID)
				refused[min.PatientID] = true
			}
		}
		slices.Sort(wantRefused)
		var wantFresh []wal.LegFreshness
		for pid := range named {
			fr := holding[pid]
			wantFresh = append(wantFresh, wal.LegFreshness{PatientID: pid, Streams: uint64(fr.Streams), Vertices: uint64(fr.Vertices)})
		}
		slices.SortFunc(wantFresh, func(a, b wal.LegFreshness) int { return strings.Compare(a.PatientID, b.PatientID) })
		var wantHit []string
		for _, pid := range held {
			scoped := slices.Contains(c.only, pid) || (c.only == nil && !slices.Contains(c.exclude, pid))
			if scoped && !refused[pid] {
				wantHit = append(wantHit, pid)
			}
		}
		slices.Sort(wantHit)
		var gotHit []string
		for _, h := range rep.Hits {
			gotHit = append(gotHit, rep.Streams[h.Stream].PatientID)
		}
		slices.Sort(gotHit)
		gotHit = slices.Compact(gotHit)

		if !reflect.DeepEqual(rep.Refused, wantRefused) {
			t.Errorf("case %d: Refused = %q, want %q", i, rep.Refused, wantRefused)
		}
		if !reflect.DeepEqual(rep.Freshness, wantFresh) {
			t.Errorf("case %d: Freshness = %+v, want %+v", i, rep.Freshness, wantFresh)
		}
		if !reflect.DeepEqual(gotHit, wantHit) {
			t.Errorf("case %d: hits from %q, want from %q", i, gotHit, wantHit)
		}
	}
}

// TestMatchScopeHeaderParseErrors: a leg whose scope is malformed is
// refused with 400 before anything is scored. The name dates from the
// X-Match-* header parser; the malformed scopes are now frames (an ID
// list whose count or string length the bytes cannot back, a Require
// entry cut short, Only with Exclude, a version-1 leg that expected its
// scope in headers), each resealed so the CRC passes and the scope
// itself is what the shard refuses.
func TestMatchScopeHeaderParseErrors(t *testing.T) {
	baseURL, _, q, _ := scopeFixture(t)
	scoped := func(only, exclude []string, require ...wal.LegFreshness) []byte {
		lq := q
		lq.Only, lq.Exclude, lq.Require = only, exclude, require
		return wal.AppendMatchLegRequest(nil, lq)
	}
	// An Only list of one "P01" ends the payload with its count, the
	// string's length, its three bytes, and two empty lists.
	onlyTail := func(edit func(tail []byte)) []byte {
		msg := scoped([]string{"P01"}, nil)
		edit(msg[len(msg)-7:])
		return resealLeg(msg)
	}
	withRequire := scoped(nil, nil, wal.LegFreshness{PatientID: "P01", Streams: 1, Vertices: 1})
	v1 := scoped([]string{"P01"}, nil)
	v1[4] = 1

	if status, body := postMatchLeg(t, baseURL, scoped([]string{"P01"}, nil)); status != http.StatusOK {
		t.Fatalf("well-formed scoped leg: status %d: %s", status, body)
	}
	for name, msg := range map[string][]byte{
		"only count beyond bytes":  onlyTail(func(tail []byte) { tail[0] = 0x7f }),
		"only ID beyond bytes":     onlyTail(func(tail []byte) { tail[1] = 0x09 }),
		"require entry cut short":  resealLeg(withRequire[:len(withRequire)-1]),
		"only and exclude":         scoped([]string{"P01"}, []string{"p,with,commas"}),
		"version 1 (header scope)": resealLeg(v1),
	} {
		if status, body := postMatchLeg(t, baseURL, msg); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, status, body)
		}
	}
}

// resealLeg recomputes a mutated leg's frame header (u32 payload length,
// u32 CRC-32C after the 6-byte magic and version), so the shard's
// decoder gets past the CRC to the scope that was changed.
func resealLeg(msg []byte) []byte {
	const off = 6
	payload := msg[off+8:]
	binary.LittleEndian.PutUint32(msg[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(msg[off+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return msg
}

// TestMatchScopeRefusal drives the follower-read contract directly
// against one server with scoped legs: an Only leg with a satisfiable
// Require bound is served, an unsatisfiable bound is refused, and an
// Exclude leg omits the excluded patient's matches entirely. The JSON
// route is never scoped: an X-Match-Exclude header left over from the
// header protocol changes nothing.
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
	stats, _ := getJSON[ShardStatsResponse](t, ts.URL+"/v1/shard/stats")
	frA := wal.LegFreshness{PatientID: "PA", Streams: uint64(stats.Freshness["PA"].Streams), Vertices: uint64(stats.Freshness["PA"].Vertices)}
	if frA.Streams != 1 || frA.Vertices == 0 {
		t.Fatalf("PA holdings = %+v", frA)
	}

	post := func(contentType string, body []byte, hdr http.Header) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/match", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header = hdr
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("match status %d (%v): %s", resp.StatusCode, err, out)
		}
		return out
	}
	leg := func(only, exclude []string, require ...wal.LegFreshness) wal.MatchLegReply {
		t.Helper()
		lq := q
		lq.Only, lq.Exclude, lq.Require = only, exclude, require
		rep, err := wal.DecodeMatchLegReply(post(wal.MatchLegContentType, wal.AppendMatchLegRequest(nil, lq), http.Header{}))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	patientOf := func(rep wal.MatchLegReply, h wal.LegHit) string { return rep.Streams[h.Stream].PatientID }

	baseline := leg(nil, nil)
	if len(baseline.Hits) == 0 {
		t.Fatal("baseline match found nothing; fixture broken")
	}
	if baseline.Refused != nil || baseline.Freshness != nil {
		t.Errorf("unscoped leg reported scope fields: %+v %+v", baseline.Refused, baseline.Freshness)
	}

	// Satisfiable bound: served, holdings reported, nothing refused.
	ok := leg([]string{"PA", "PB"}, nil, frA)
	if len(ok.Refused) != 0 {
		t.Errorf("satisfiable bound refused %v", ok.Refused)
	}
	if i := slices.IndexFunc(ok.Freshness, func(f wal.LegFreshness) bool { return f.PatientID == "PA" }); i < 0 || ok.Freshness[i] != frA {
		t.Errorf("reported freshness %+v, want %+v", ok.Freshness, frA)
	}
	if len(ok.Hits) != len(baseline.Hits) {
		t.Errorf("scoped full match returned %d matches, baseline %d", len(ok.Hits), len(baseline.Hits))
	}

	// Unsatisfiable bound (as if the primary were ahead): refused, and
	// none of PA's matches leak into the reply.
	over := frA
	over.Vertices += 10
	ref := leg([]string{"PA", "PB"}, nil, over)
	if len(ref.Refused) != 1 || ref.Refused[0] != "PA" {
		t.Fatalf("Refused = %v, want [PA]", ref.Refused)
	}
	for _, h := range ref.Hits {
		if patientOf(ref, h) == "PA" {
			t.Fatalf("refused patient still matched: %+v", h)
		}
	}

	// Exclude mode: PA's arcs are scored elsewhere, so they must not
	// appear here (PB's similarity to PA's query is data-dependent, so
	// its presence is not asserted).
	exc := leg(nil, []string{"PA"})
	for _, h := range exc.Hits {
		if patientOf(exc, h) == "PA" {
			t.Fatalf("excluded patient matched: %+v", h)
		}
	}
	// A bound on a patient this shard does not hold at all is refused.
	missing := leg(nil, []string{"PA"}, wal.LegFreshness{PatientID: "PZ", Streams: 1})
	if len(missing.Refused) != 1 || missing.Refused[0] != "PZ" {
		t.Errorf("unknown-patient Require: Refused = %v, want [PZ]", missing.Refused)
	}

	// The JSON route ignores the retired scope header: PA still matches.
	body, err := json.Marshal(MatchRequest{Seq: q.Seq, PatientID: q.PatientID, SessionID: q.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	var unscoped, stale MatchResponse
	if err := json.Unmarshal(post("application/json", body, http.Header{}), &unscoped); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(post("application/json", body, http.Header{"X-Match-Exclude": {"PA"}}), &stale); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stale, unscoped) || !slices.ContainsFunc(stale.Matches, func(m RemoteMatch) bool { return m.PatientID == "PA" }) {
		t.Errorf("JSON match under X-Match-Exclude: PA = %d matches, unscoped %d; want the unscoped answer",
			len(stale.Matches), len(unscoped.Matches))
	}
}

// TestShardStatsLinkSeqs: after a replicated ingest the primary's
// stats expose per-link shipped/acked sequence numbers, the follower
// reports its applied high-water mark, and both sides publish
// per-patient holdings. The healthz payload carries the same per-
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
	if pStats.Freshness["P01"].Vertices == 0 {
		t.Error("primary stats missing P01 freshness")
	}

	rStats, _ := getJSON[ShardStatsResponse](t, replica.URL+"/v1/shard/stats")
	if len(rStats.Replicas) != 1 {
		t.Fatalf("replica inventory = %+v", rStats.Replicas)
	}
	if got := rStats.Replicas[0].AppliedSeq; got != link.AckedSeq {
		t.Errorf("replica applied seq %d, primary acked %d", got, link.AckedSeq)
	}
	if rStats.Freshness["P01"] != pStats.Freshness["P01"] {
		t.Errorf("follower freshness %+v != primary %+v after clean flush",
			rStats.Freshness["P01"], pStats.Freshness["P01"])
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
