package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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
// without an explicit now, an unscoped binary leg reply decodes to the
// MatchResponse the JSON route returns. A scoped leg — every kind of
// scope a leg can carry, including a Require bound the shard must
// refuse — answers the unscoped result
// restricted to the patients its scope admits: a refusal is reported
// exactly when the holdings the shard reports fall short of the bound.
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
	const unmeetable = 1 << 30
	scopes := []struct {
		name          string
		only, exclude []string
		require       []wal.LegFreshness
	}{
		{name: "exclude", exclude: []string{"P01", "P02"}},
		{name: "only", only: []string{"P00", "P03", "P05"}},
		{name: "require", exclude: []string{"P04"}, require: []wal.LegFreshness{
			{PatientID: "P00", Streams: 1, Vertices: 1}, {PatientID: "P01", Streams: 1, Vertices: unmeetable}}},
		{name: "retry", only: []string{"P02", "P03"}, require: []wal.LegFreshness{
			{PatientID: "P02", Streams: 1}, {PatientID: "P03", Streams: 1, Vertices: unmeetable}}},
	}
	now := 1e6
	compared, matched, refused := 0, 0, 0
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
					label := fmt.Sprintf("%s %s/%s k=%d now=%v unscoped", node.URL, q.pid, q.sid, k, at != nil)
					req.Now, lr.Now = at, at
					want := viaJSON(req)
					rep := viaLeg(lr)
					if rep.Refused != nil || rep.Freshness != nil {
						t.Errorf("%s: unscoped leg reported scope fields %v %v", label, rep.Refused, rep.Freshness)
					}
					if got := legAsResponse(t, rep); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: leg reply differs from the JSON route\n leg  %+v\n json %+v", label, got, want)
					}
					compared++
					matched += len(want.Matches)
				}
				// The reference a scope restricts: every candidate ranked for
				// a top-k leg (a restricted top-k is the top k of what it
				// admits), the threshold result otherwise.
				req.Now = nil
				if k > 0 {
					req.K = 1 << 16
				}
				all := viaJSON(req)
				for _, sc := range scopes {
					label := fmt.Sprintf("%s %s/%s k=%d %s", node.URL, q.pid, q.sid, k, sc.name)
					lr.Now, lr.Only, lr.Exclude, lr.Require = nil, sc.only, sc.exclude, sc.require
					rep := viaLeg(lr)
					lr.Only, lr.Exclude, lr.Require = nil, nil, nil
					held := map[string]wal.LegFreshness{}
					for _, fr := range rep.Freshness {
						held[fr.PatientID] = fr
					}
					for _, b := range sc.require {
						if sc.only != nil && !slices.Contains(sc.only, b.PatientID) {
							continue
						}
						fr, reported := held[b.PatientID]
						short := fr.Streams < b.Streams || fr.Vertices < b.Vertices
						if !reported || short != slices.Contains(rep.Refused, b.PatientID) {
							t.Errorf("%s: bound %+v, reported holdings %+v (%v), refused %v", label, b, fr, reported, rep.Refused)
						}
					}
					admits := func(pid string) bool {
						if slices.Contains(rep.Refused, pid) {
							return false
						}
						if sc.only != nil {
							return slices.Contains(sc.only, pid)
						}
						return !slices.Contains(sc.exclude, pid)
					}
					want := []server.RemoteMatch{}
					for _, m := range all.Matches {
						if admits(m.PatientID) && (k == 0 || len(want) < k) {
							want = append(want, m)
						}
					}
					mustEqualMatches(t, label, want, legAsResponse(t, rep).Matches)
					compared++
					refused += len(rep.Refused)
				}
			}
		}
	}
	if matched == 0 || refused == 0 {
		t.Fatalf("fixture proves nothing: %d comparisons saw %d matches and %d refusals", compared, matched, refused)
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
		gw, err := shard.NewGateway([]string{good.URL, bad.URL}, shard.Options{HealthInterval: -1})
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
// At max-lag 0 every leg is the one shared, unscoped encoding. Above it
// each planned patient is pinned, with its Require bound, on exactly
// one leg and excluded on every other; a patient that leg refuses is
// retried on another backend by a leg whose Only names it. No request
// carries a scope header.
func TestGatewayLegsCarryScope(t *testing.T) {
	type sent struct {
		backend string
		body    []byte
		leg     wal.MatchLegRequest
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
				// Every create acks fully replicated holdings, so the planner
				// may pin any owner.
				w.Header().Set(server.HeaderPatientStreams, "1")
				w.Header().Set(server.HeaderPatientVertices, "50")
				w.Header().Set(server.HeaderReplicated, "full")
				w.WriteHeader(http.StatusCreated)
				w.Write([]byte(`{}`)) //nolint:errcheck
				return
			}
			body, _ := io.ReadAll(r.Body)
			lr, err := wal.DecodeMatchLegRequest(body)
			if r.URL.Path != "/v1/match" || r.Header.Get("Content-Type") != wal.MatchLegContentType || err != nil {
				t.Errorf("unexpected %s %s (%s): %v", r.Method, r.URL.Path, r.Header.Get("Content-Type"), err)
				return
			}
			mu.Lock()
			legs = append(legs, sent{ts.URL, body, lr})
			mu.Unlock()
			// A scatter leg refuses every patient it must prove a bound
			// for; a retry leg refuses nothing.
			var rep wal.MatchLegReply
			if lr.Only == nil {
				for _, b := range lr.Require {
					rep.Refused = append(rep.Refused, b.PatientID)
				}
			}
			w.Header().Set("Content-Type", wal.MatchLegContentType)
			w.Write(wal.AppendMatchLegReply(nil, rep)) //nolint:errcheck
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
	var pids []string
	for i := range 6 {
		pid := fmt.Sprintf("P%02d", i)
		pids = append(pids, pid)
		if resp := testutil.PostJSON(t, gts.URL+"/v1/sessions", server.CreateSessionRequest{PatientID: pid, SessionID: "S-" + pid}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", pid, resp.StatusCode)
		}
	}
	seq := plr.Sequence{{T: 0, Pos: []float64{0}, State: plr.EX}, {T: 1, Pos: []float64{1}, State: plr.IN}}
	query := func(maxLag int) (shard.MatchResult, []sent) {
		t.Helper()
		mu.Lock()
		legs = nil
		mu.Unlock()
		res := matchFull(t, gts.URL, server.MatchRequest{Seq: seq, K: 5, MaxLag: maxLag})
		mu.Lock()
		defer mu.Unlock()
		return res, legs
	}

	res, got := query(0)
	if res.Degraded || res.PlannedPatients != 0 || len(got) != len(urls) {
		t.Fatalf("max-lag 0: degraded=%v planned=%d, %d legs; want a clean unplanned scatter to %d shards",
			res.Degraded, res.PlannedPatients, len(got), len(urls))
	}
	for _, l := range got {
		if l.leg.Only != nil || l.leg.Exclude != nil || l.leg.Require != nil || !bytes.Equal(l.body, got[0].body) {
			t.Errorf("max-lag 0 leg to %s: scope %v/%v/%v; want the one shared unscoped encoding",
				l.backend, l.leg.Only, l.leg.Exclude, l.leg.Require)
		}
	}

	res, got = query(10)
	if res.Degraded || res.PlannedPatients != len(pids) || len(res.UnservedPatients) != 0 {
		t.Fatalf("max-lag 10: degraded=%v planned=%d unserved=%v; want every patient planned and served",
			res.Degraded, res.PlannedPatients, res.UnservedPatients)
	}
	var scatter, retry []sent
	for _, l := range got {
		if l.leg.Only == nil {
			scatter = append(scatter, l)
		} else {
			retry = append(retry, l)
		}
	}
	if len(scatter) != len(urls) {
		t.Fatalf("%d scatter legs, want %d", len(scatter), len(urls))
	}
	for _, pid := range pids {
		bound := wal.LegFreshness{PatientID: pid, Streams: 1, Vertices: 50 - 10} // the primary's holdings less the max-lag
		var pinned []string
		for _, l := range scatter {
			i := slices.IndexFunc(l.leg.Require, func(b wal.LegFreshness) bool { return b.PatientID == pid })
			excluded := slices.Contains(l.leg.Exclude, pid)
			if i >= 0 {
				pinned = append(pinned, l.backend)
				if l.leg.Require[i] != bound {
					t.Errorf("%s: bound %+v on %s, want %+v", pid, l.leg.Require[i], l.backend, bound)
				}
			}
			if (i >= 0) == excluded {
				t.Errorf("%s on %s: pinned=%v excluded=%v; want exactly one", pid, l.backend, i >= 0, excluded)
			}
		}
		if len(pinned) != 1 {
			t.Fatalf("%s pinned on %v, want exactly one leg", pid, pinned)
		}
		var retriedOn []string
		for _, l := range retry {
			if slices.Contains(l.leg.Only, pid) {
				retriedOn = append(retriedOn, l.backend)
			}
		}
		if len(retriedOn) != 1 || retriedOn[0] == pinned[0] {
			t.Errorf("%s refused on %s, retried on %v; want one retry leg elsewhere", pid, pinned[0], retriedOn)
		}
	}
	for _, l := range retry {
		if l.leg.Exclude != nil {
			t.Errorf("retry leg to %s carries Exclude %v", l.backend, l.leg.Exclude)
		}
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
		"one vertex":      `{"seq":[{"t":0,"pos":[0],"state":0}]}`,
		"ragged dims":     `{"seq":[{"t":0,"pos":[0],"state":0},{"t":1,"pos":[1,2],"state":1}]}`,
		"time order":      `{"seq":[{"t":1,"pos":[0],"state":0},{"t":1,"pos":[1],"state":1}]}`,
		"invalid state":   `{"seq":[{"t":0,"pos":[0],"state":9},{"t":1,"pos":[1],"state":1}]}`,
		"negative k":      `{"k":-1,"seq":` + string(seq) + `}`,
		"negative maxLag": `{"maxLag":-1,"seq":` + string(seq) + `}`,
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
