package shard_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/frame"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/testutil"
	"stsmatch/internal/wal"
)

// postMatch POSTs a /v1/match body to a shard and returns the 200
// response's body and headers.
func postMatch(t *testing.T, url, contentType string, body []byte) ([]byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s (%s): status %d: %s", url, contentType, resp.StatusCode, out)
	}
	return out, resp.Header
}

// legAsResponse spells a decoded leg reply's hits the way the JSON
// route spells the same result.
func legAsResponse(t *testing.T, rep wal.MatchLegReply) server.MatchResponse {
	t.Helper()
	resp := server.MatchResponse{Matches: make([]server.RemoteMatch, len(rep.Hits))}
	for i, h := range rep.Hits {
		s := rep.Streams[h.Stream]
		resp.Matches[i] = server.RemoteMatch{
			PatientID: s.PatientID,
			SessionID: s.SessionID,
			Start:     int(h.Start),
			N:         int(h.N),
			Relation:  core.SourceRelation(s.Relation).String(),
			Distance:  h.Distance,
			Weight:    h.Weight,
		}
	}
	if len(rep.Profile) > 0 {
		resp.Profile = new(obs.Profile)
		if err := json.Unmarshal(rep.Profile, resp.Profile); err != nil {
			t.Fatalf("leg profile does not parse: %v", err)
		}
	}
	return resp
}

// TestLegEqualsJSON: /v1/match speaks two codecs over one search. On
// every shard of a replicated fixture, for a query cut from every
// session and an anonymous one, in top-k and threshold mode, with and
// without an explicit now, a binary leg reply decodes to the
// MatchResponse the JSON route returns.
func TestLegEqualsJSON(t *testing.T) {
	f := newFixture(t, 2)
	type query struct {
		pid, sid string
		seq      plr.Sequence
	}
	var queries []query
	for sid, pid := range f.sessions {
		pr := testutil.GetJSON[server.PLRResponse](t, f.oracle.URL+"/v1/sessions/"+sid+"/plr")
		queries = append(queries, query{pid, sid, pr.Vertices[len(pr.Vertices)-10:]})
	}
	queries = append(queries, query{seq: queries[0].seq})
	now := 1e6
	compared, matched := 0, 0
	for _, node := range f.cluster.Nodes {
		for _, q := range queries {
			for _, k := range []int{0, 10} {
				viaJSON := func(req server.MatchRequest) server.MatchResponse {
					t.Helper()
					body, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					raw, _ := postMatch(t, node.URL+"/v1/match", "application/json", body)
					var resp server.MatchResponse
					if err := json.Unmarshal(raw, &resp); err != nil {
						t.Fatal(err)
					}
					return resp
				}
				viaLeg := func(lr wal.MatchLegRequest) wal.MatchLegReply {
					t.Helper()
					raw, hdr := postMatch(t, node.URL+"/v1/match", wal.MatchLegContentType, wal.AppendMatchLegRequest(nil, lr))
					if ct := hdr.Get("Content-Type"); ct != wal.MatchLegContentType {
						t.Fatalf("leg reply Content-Type %q", ct)
					}
					rep, err := wal.DecodeMatchLegReply(raw)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				req := server.MatchRequest{Seq: q.seq, PatientID: q.pid, SessionID: q.sid, K: k}
				lr := wal.MatchLegRequest{K: k, PatientID: q.pid, SessionID: q.sid, Seq: q.seq}
				for _, at := range []*float64{nil, &now} {
					label := fmt.Sprintf("%s %s/%s k=%d now=%v", node.URL, q.pid, q.sid, k, at != nil)
					req.Now, lr.Now = at, at
					want := viaJSON(req)
					rep := viaLeg(lr)
					if got := legAsResponse(t, rep); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: leg reply differs from the JSON route\n leg  %+v\n json %+v", label, got, want)
					}
					compared++
					matched += len(want.Matches)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatalf("fixture proves nothing: %d comparisons saw no match", compared)
	}

	// ?debug=profile: the span tree is per request, so the two replies
	// carry different traces; both must carry one, rooted at the handler,
	// around the same matches.
	q := queries[0]
	jsonBody, _ := json.Marshal(server.MatchRequest{Seq: q.seq, PatientID: q.pid, SessionID: q.sid, K: 10})
	url := f.cluster.Nodes[0].URL + "/v1/match?debug=profile"
	jraw, _ := postMatch(t, url, "application/json", jsonBody)
	var want server.MatchResponse
	if err := json.Unmarshal(jraw, &want); err != nil {
		t.Fatal(err)
	}
	lraw, _ := postMatch(t, url, wal.MatchLegContentType,
		wal.AppendMatchLegRequest(nil, wal.MatchLegRequest{K: 10, PatientID: q.pid, SessionID: q.sid, Seq: q.seq}))
	rep, err := wal.DecodeMatchLegReply(lraw)
	if err != nil {
		t.Fatal(err)
	}
	got := legAsResponse(t, rep)
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Errorf("profiled leg matches differ from the JSON route")
	}
	for codec, p := range map[string]*obs.Profile{"json": want.Profile, "leg": got.Profile} {
		if p == nil || p.TraceID == "" || p.Root == nil || p.Root.Name != "POST /v1/match" {
			t.Errorf("%s profile = %+v, want a tree rooted at POST /v1/match", codec, p)
		}
	}
}

// TestGatewayReportsBadLegReply: whatever a shard answers a leg with —
// bytes that are not a reply, a reply of another version, one that
// fails its checksum, or a well-framed one carrying a NaN distance or a
// hit naming a stream outside its table — the gateway reports that
// shard in shardErrors, degrades, and merges the others. It never
// panics and never lets the value through.
func TestGatewayReportsBadLegReply(t *testing.T) {
	f := newFixture(t, 1)
	good := f.cluster.Nodes[0]
	seq := f.querySeq(t)
	want := testutil.Decode[server.MatchResponse](t, testutil.PostJSON(t, good.URL+"/v1/match",
		server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: 10}))

	okReply := wal.MatchLegReply{
		Streams: []wal.LegStream{{PatientID: "PX", SessionID: "SX", Relation: 2}},
		Hits:    []wal.LegHit{{Stream: 0, Start: 1, N: 10, Distance: 0, Weight: 1}},
	}
	mutate := func(edit func(*wal.MatchLegReply)) []byte {
		rep := okReply
		rep.Hits = append([]wal.LegHit(nil), okReply.Hits...)
		edit(&rep)
		return wal.AppendMatchLegReply(nil, rep)
	}
	valid := wal.AppendMatchLegReply(nil, okReply)
	otherVersion := append([]byte(nil), valid...)
	otherVersion[4] = 1
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 1
	for name, reply := range map[string][]byte{
		"not a reply":         []byte(`{"matches":[]}`),
		"empty":               nil,
		"unknown version":     otherVersion,
		"checksum mismatch":   badCRC,
		"trailing bytes":      append(append([]byte(nil), valid...), 0),
		"NaN distance":        mutate(func(r *wal.MatchLegReply) { r.Hits[0].Distance = math.NaN() }),
		"infinite weight":     mutate(func(r *wal.MatchLegReply) { r.Hits[0].Weight = math.Inf(1) }),
		"stream out of range": mutate(func(r *wal.MatchLegReply) { r.Hits[0].Stream = 1 }),
	} {
		bad := httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ct := r.Header.Get("Content-Type"); r.URL.Path == "/v1/match" && ct != wal.MatchLegContentType {
				t.Errorf("gateway leg arrived as %q", ct)
			}
			w.Header().Set("Content-Type", wal.MatchLegContentType)
			w.Write(reply) //nolint:errcheck
		})})
		gw, err := shard.NewGateway([]string{good.URL, bad.URL}, shard.Options{Transport: f.cluster.Transport, HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		gts := httptest.NewServer(gw)
		res := matchFull(t, gts.URL, server.MatchRequest{Seq: seq, PatientID: f.queryPID, SessionID: f.querySID, K: 10})
		if !res.Degraded || res.ShardsOK != 1 || res.ShardErrors[bad.URL] == "" {
			t.Errorf("%s: degraded=%v shardsOk=%d shardErrors=%v; want the bad shard reported", name, res.Degraded, res.ShardsOK, res.ShardErrors)
		}
		mustEqualMatches(t, name+": survivors' matches", want.Matches, res.Matches)
		gts.Close()
		gw.Close()
		bad.Close()
	}
}

// TestGatewayLegsCarryScope records what the gateway sends each shard.
// The name dates from the follower-read planner, which pinned patients
// with per-leg scopes. Now each healthy shard gets exactly one leg, and
// every leg is the one shared, unscoped version-3 encoding of the
// query. No request carries a scope header.
func TestGatewayLegsCarryScope(t *testing.T) {
	type sent struct {
		backend string
		body    []byte
	}
	var (
		mu   sync.Mutex
		legs []sent
	)
	var urls []string
	for range 3 {
		var ts *httptest.Server
		ts = httptest.NewServer(&frame.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for h := range r.Header {
				if strings.HasPrefix(h, "X-Match-") {
					t.Errorf("%s %s carries %s", r.Method, r.URL.Path, h)
				}
			}
			if r.URL.Path == "/v1/sessions" {
				w.WriteHeader(http.StatusCreated)
				w.Write([]byte(`{}`)) //nolint:errcheck
				return
			}
			body, _ := io.ReadAll(r.Body)
			if r.URL.Path != "/v1/match" || r.Header.Get("Content-Type") != wal.MatchLegContentType {
				t.Errorf("unexpected %s %s (%s)", r.Method, r.URL.Path, r.Header.Get("Content-Type"))
				return
			}
			mu.Lock()
			legs = append(legs, sent{ts.URL, body})
			mu.Unlock()
			w.Header().Set("Content-Type", wal.MatchLegContentType)
			w.Write(wal.AppendMatchLegReply(nil, wal.MatchLegReply{})) //nolint:errcheck
		})})
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	gw, err := shard.NewGateway(urls, shard.Options{Replicas: 2, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	for i := range 6 {
		pid := fmt.Sprintf("P%02d", i)
		if resp := testutil.PostJSON(t, gts.URL+"/v1/sessions", server.CreateSessionRequest{PatientID: pid, SessionID: "S-" + pid}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", pid, resp.StatusCode)
		}
	}
	seq := plr.Sequence{{T: 0, Pos: []float64{0}, State: plr.EX}, {T: 1, Pos: []float64{1}, State: plr.IN}}
	want := wal.AppendMatchLegRequest(nil, wal.MatchLegRequest{K: 5, Seq: seq})
	if v := binary.LittleEndian.Uint16(want[4:]); v != 3 {
		t.Fatalf("legs encode as version %d, want 3", v)
	}
	res := matchFull(t, gts.URL, server.MatchRequest{Seq: seq, K: 5})
	mu.Lock()
	got := legs
	mu.Unlock()
	if res.Degraded || res.ShardsOK != len(urls) || len(got) != len(urls) {
		t.Fatalf("degraded=%v shardsOk=%d, %d legs; want one clean leg to each of %d shards",
			res.Degraded, res.ShardsOK, len(got), len(urls))
	}
	seen := map[string]bool{}
	for _, l := range got {
		seen[l.backend] = true
		if !bytes.Equal(l.body, want) {
			t.Errorf("leg to %s: %x; want the one shared unscoped encoding %x", l.backend, l.body, want)
		}
	}
	if len(seen) != len(urls) {
		t.Errorf("legs went to %v, want each of %v once", seen, urls)
	}
}

// TestGatewayStrictBodies: the gateway's own body-taking routes hold
// the rule the shards now hold — one JSON value, nothing after it — and
// refuse a query no shard would take without scattering it.
func TestGatewayStrictBodies(t *testing.T) {
	f := newFixture(t, 1)
	seq, err := json.Marshal(f.querySeq(t))
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(f.cluster.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	for _, tc := range []struct {
		route, path, body string
		ok                int
	}{
		{"match", "/v1/match", `{"k":%d,"seq":` + string(seq) + `}`, http.StatusOK},
		{"create session", "/v1/sessions", `{"patientId":"P77","sessionId":"S77-%d"}`, http.StatusCreated},
		{"create subscription", "/v1/subscriptions", `{"id":"strict-%d","patientId":"P00","seq":` + string(seq) + `}`, http.StatusCreated},
	} {
		if code, out := post(tc.path, fmt.Sprintf(tc.body, 1)+"\n"); code != tc.ok {
			t.Errorf("%s: clean body status %d, want %d: %s", tc.route, code, tc.ok, out)
		}
		for i, tail := range []string{"garbage{", "{}", "]"} {
			if code, _ := post(tc.path, fmt.Sprintf(tc.body, 2+i)+tail); code != http.StatusBadRequest {
				t.Errorf("%s: trailing %q status %d, want 400", tc.route, tail, code)
			}
		}
	}
	for name, body := range map[string]string{
		"one vertex":    `{"seq":[{"t":0,"pos":[0],"state":0}]}`,
		"ragged dims":   `{"seq":[{"t":0,"pos":[0],"state":0},{"t":1,"pos":[1,2],"state":1}]}`,
		"time order":    `{"seq":[{"t":1,"pos":[0],"state":0},{"t":1,"pos":[1],"state":1}]}`,
		"invalid state": `{"seq":[{"t":0,"pos":[0],"state":9},{"t":1,"pos":[1],"state":1}]}`,
		"negative k":    `{"k":-1,"seq":` + string(seq) + `}`,
	} {
		if code, out := post("/v1/match", body); code != http.StatusBadRequest {
			t.Errorf("invalid query (%s): status %d, want 400: %s", name, code, out)
		}
	}
}

// referenceMerge is the merge as it was written over public matches:
// deduplicate whole matches, sort by (distance, patient, session,
// start), truncate. The hit merge must produce the same list.
func referenceMerge(lists [][]server.RemoteMatch, k int) []server.RemoteMatch {
	out := []server.RemoteMatch{}
	seen := make(map[server.RemoteMatch]struct{})
	for _, l := range lists {
		for _, m := range l {
			if _, dup := seen[m]; !dup {
				seen[m] = struct{}{}
				out = append(out, m)
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Distance != y.Distance {
			return x.Distance < y.Distance
		}
		if x.PatientID != y.PatientID {
			return x.PatientID < y.PatientID
		}
		if x.SessionID != y.SessionID {
			return x.SessionID < y.SessionID
		}
		return x.Start < y.Start
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestMergeMatchesEqualsReference drives the hit merge with what R=2
// produces — every list a shard's ranked answer, most matches present
// in two lists, distances drawn from a handful of values so ties are
// the rule — and requires the reference's result at every k.
func TestMergeMatchesEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	relations := []string{"same-session", "same-patient", "other-patient"}
	for trial := 0; trial < 200; trial++ {
		var pool []server.RemoteMatch
		for i, n := 0, rng.Intn(40); i < n; i++ {
			// Weight is a function of relation and distance, as it is in
			// the matcher: the reference orders nothing below start.
			p, d := rng.Intn(4), float64(rng.Intn(5))/4
			pool = append(pool, server.RemoteMatch{
				PatientID: fmt.Sprintf("P%02d", p),
				SessionID: fmt.Sprintf("S%d-P%02d", rng.Intn(2), p),
				Start:     rng.Intn(6),
				N:         10,
				Relation:  relations[min(p, 2)],
				Distance:  d,
				Weight:    1 / float64(1+min(p, 2)) / (1 + d),
			})
		}
		lists := make([][]server.RemoteMatch, 3)
		for _, m := range pool {
			a := rng.Intn(3)
			lists[a] = append(lists[a], m)
			if rng.Intn(4) > 0 {
				b := (a + 1 + rng.Intn(2)) % 3
				lists[b] = append(lists[b], m)
			}
		}
		for _, k := range []int{0, 1, 10, 1000} {
			want, got := referenceMerge(lists, k), shard.MergeMatches(lists, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\n got %+v\nwant %+v", trial, k, got, want)
			}
		}
	}
}
