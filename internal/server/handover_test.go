package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
)

// newAdvertised builds an in-memory server that advertises its own test
// listener's URL, as a deployed shard does.
func newAdvertised(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	var srv *Server
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { srv.ServeHTTP(w, r) }))
	t.Cleanup(ts.Close)
	opts.AdvertiseURL = ts.URL
	var err error
	if srv, err = NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), opts); err != nil {
		t.Fatal(err)
	}
	return srv, ts.URL
}

// copyOf is node srv's copy of a session's stream, whether it owns the
// session, follows it or only holds it.
func copyOf(srv *Server, patientID, sessionID string) plr.Sequence {
	srv.lock()
	defer srv.mu.Unlock()
	v := srv.held(patientID, sessionID)
	return v.Window(0, v.Len())
}

// migrateTo drives POST /v1/sessions/{sid}/migrate on from and returns
// the status and the Location header.
func migrateTo(t *testing.T, from, sid, target string) (int, string) {
	t.Helper()
	resp := postJSON(t, from+"/v1/sessions/"+sid+"/migrate", MigrateRequest{Target: target})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode, resp.Header.Get("Location")
}

// shardStats reads a node's inventory.
func shardStats(t *testing.T, url string) ShardStatsResponse {
	t.Helper()
	st, code := getJSON[ShardStatsResponse](t, url+"/v1/shard/stats")
	if code != http.StatusOK {
		t.Fatalf("shard stats on %s: status %d", url, code)
	}
	return st
}

// TestSourceYieldsToPromotedTarget: a migration source paused between
// the target's promote and its own commit is still live at epoch 1 when
// the target, at epoch 2 and shipping to it as a follower, sends its
// first catch-up. The source yields — the catch-up begins with exactly
// its stream — and follows the target, so the target's ingest is acked
// with no replica error, before the source's commit and after it, and
// the re-driven commit answers 410 naming the target.
func TestSourceYieldsToPromotedTarget(t *testing.T) {
	src, srcURL := newAdvertised(t, Options{})
	_, tgtURL := newAdvertised(t, Options{})
	resp := postJSON(t, srcURL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 29, 80)
	half, threeQ := len(samples)/2, 3*len(samples)/4
	ingestBatches(t, srcURL, "S01", samples[:half], 256)

	paused, release := make(chan struct{}), make(chan struct{})
	var unpause sync.Once
	t.Cleanup(func() { unpause.Do(func() { close(release) }) })
	src.SetMigrationHook(func(phase string) {
		if phase == "tombstone" {
			close(paused)
			<-release
		}
	})
	migrated := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(MigrateRequest{Target: tgtURL, Replicate: []string{srcURL}})
		resp, err := http.Post(srcURL+"/v1/sessions/S01/migrate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
		}
		migrated <- resp
	}()
	<-paused

	// ingestBatches fails on any replica error.
	ingestBatches(t, tgtURL, "S01", samples[half:threeQ], 256)
	st := shardStats(t, srcURL)
	if len(st.Sessions) != 0 || len(st.Replicas) != 1 || st.Replicas[0].SessionID != "S01" {
		t.Fatalf("source inventory before its commit: sessions %+v replicas %+v, want S01 followed only", st.Sessions, st.Replicas)
	}
	if want := []ShardSession{{SessionID: "S01", PatientID: "P01", Owner: tgtURL, Epoch: 2}}; !reflect.DeepEqual(st.Retired, want) {
		t.Errorf("source's retired list = %+v, want %+v", st.Retired, want)
	}

	unpause.Do(func() { close(release) })
	if resp := <-migrated; resp == nil || resp.StatusCode != http.StatusGone || resp.Header.Get("Location") != tgtURL {
		t.Fatalf("the migrate whose source yielded before its commit: %+v, want 410 naming %s", resp, tgtURL)
	} else {
		resp.Body.Close()
	}
	ingestBatches(t, tgtURL, "S01", samples[threeQ:], 256)
	if got, acked := replicaVertices(t, srcURL, "S01"), plrLen(t, tgtURL, "S01"); got != acked {
		t.Fatalf("the source follows with %d vertices, the target acked %d", got, acked)
	}

	// The owner's close reaches the source as its follower and ends the
	// tombstone's claim too.
	req, _ := http.NewRequest(http.MethodDelete, tgtURL+"/v1/sessions/S01", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close on the target: %v %+v", err, resp)
	}
	if st := shardStats(t, srcURL); len(st.Replicas) != 0 || len(st.Retired) != 0 {
		t.Errorf("source inventory after the owner's close: replicas %+v retired %+v, want neither", st.Replicas, st.Retired)
	}
}

// TestSupersededPrimaryKeepsItsCopy: a deposed primary that acked a
// vertex its successor lacks (its shipments to the follower were lost)
// does not yield to the successor's catch-up. It refuses the catch-up
// whole with 422, keeps its copy, and acknowledges no further write; the
// successor ships it no further catch-up.
func TestSupersededPrimaryKeepsItsCopy(t *testing.T) {
	drop := &shipDropper{}
	_, primURL := newAdvertised(t, Options{ReplicateTransport: drop})
	folSrv, folURL := newAdvertised(t, Options{})
	drop.target = folURL
	resp := postJSON(t, primURL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{folURL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 31, 90)
	third := len(samples) / 3
	ingestBatches(t, primURL, "S01", samples[:third], 256)

	// The follower hears nothing more; the primary acks with replica
	// errors and now holds vertices the follower lacks.
	drop.drops.Store(1 << 20)
	resp = postJSON(t, primURL+"/v1/sessions/S01/samples", samples[third:2*third])
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) == 0 {
		t.Fatalf("ingest with the follower cut off: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}
	held, _ := getJSON[PLRResponse](t, primURL+"/v1/sessions/S01/plr")
	if got := replicaVertices(t, folURL, "S01"); got >= len(held.Vertices) {
		t.Fatalf("the follower holds %d vertices, the primary %d: fixture too short to tell", got, len(held.Vertices))
	}
	drop.drops.Store(0)

	resp = postJSON(t, folURL+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{primURL}})
	if pr := decode[PromoteResponse](t, resp); resp.StatusCode != http.StatusOK || pr.Epoch != 2 {
		t.Fatalf("promote: status %d, epoch %d", resp.StatusCode, pr.Epoch)
	}
	// The promoted follower's first shipment to the old primary is a
	// catch-up short of the old primary's stream: refused (422), and the
	// successor drops the link, so its later ingests, 30 and more, ship
	// no other catch-up and carry no replica error.
	catchups := folSrv.met.replSnapshots.Value()
	resp = postJSON(t, folURL+"/v1/sessions/S01/samples", samples[2*third:2*third+10])
	sr := decode[SamplesResponse](t, resp)
	if resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 || !strings.HasPrefix(sr.ReplicaErrors[0], primURL) || !strings.Contains(sr.ReplicaErrors[0], "422") {
		t.Fatalf("the successor's ingest: status %d, replica errors %v, want 200 with %s's 422", resp.StatusCode, sr.ReplicaErrors, primURL)
	}
	rest := samples[2*third+10:]
	ingestBatches(t, folURL, "S01", rest, len(rest)/30)
	if n := folSrv.met.replSnapshots.Value() - catchups; n > 2 {
		t.Errorf("the successor shipped %d catch-ups over 31 ingests and more, want at most 2", n)
	}

	// The old primary keeps its copy, still its own at epoch 1...
	kept, _ := getJSON[PLRResponse](t, primURL+"/v1/sessions/S01/plr")
	if !reflect.DeepEqual(kept.Vertices, held.Vertices) {
		t.Fatalf("the superseded primary serves %d vertices, it held %d", len(kept.Vertices), len(held.Vertices))
	}
	if st := shardStats(t, primURL); len(st.Sessions) != 1 || st.Sessions[0].Epoch != 1 || len(st.Retired) != 0 {
		t.Errorf("superseded primary's inventory: sessions %+v retired %+v, want S01 at epoch 1", st.Sessions, st.Retired)
	}
	// ...and acknowledges nothing more: 409 naming the epoch, nothing
	// stored.
	resp = postJSON(t, primURL+"/v1/sessions/S01/samples", samples[2*third:])
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "epoch 2") {
		t.Fatalf("ingest on the superseded primary: status %d %s, want 409 naming epoch 2", resp.StatusCode, body)
	}
	if n := plrLen(t, primURL, "S01"); n != len(held.Vertices) {
		t.Fatalf("the refused ingest stored vertices: %d, was %d", n, len(held.Vertices))
	}
}

// TestYieldedCopyRefusesDivergedCatchup: A yields to B, its successor,
// holding the vertices of the write whose flush met B's 412, which B
// never acknowledged. B's catch-up then reaches A, whose copy is no
// prefix of B's stream: A refuses it whole (422), keeps its copy, follows
// no more (not listed, not promotable) and counts the divergence, and B
// drops the link, so its later ingests carry no replica error.
func TestYieldedCopyRefusesDivergedCatchup(t *testing.T) {
	aSrv, a := newAdvertised(t, Options{})
	_, b := newAdvertised(t, Options{})
	if resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: []string{b}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 37, 90)
	third := len(samples) / 3
	ingestBatches(t, a, "S01", samples[:third], 256)
	if resp := postJSON(t, b+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{a}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}

	// A's next write lands in its copy, meets B's 412 and A yields: the
	// write is not acknowledged.
	resp := postJSON(t, a+"/v1/sessions/S01/samples", samples[third:2*third])
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("A's write after B's promote: status %d, want 410", resp.StatusCode)
	}
	held := copyOf(aSrv, "P01", "S01")
	if n := plrLen(t, b, "S01"); len(held) <= n {
		t.Fatalf("A holds %d vertices, B %d: fixture does not diverge", len(held), n)
	}
	before, _ := json.Marshal(held)
	diverged := aSrv.met.replDiverged.Value()

	resp = postJSON(t, b+"/v1/sessions/S01/samples", samples[2*third:2*third+20]) // ships B's catch-up to A
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 ||
		!strings.HasPrefix(sr.ReplicaErrors[0], a) || !strings.Contains(sr.ReplicaErrors[0], "422") {
		t.Fatalf("B's first ingest: status %d, replica errors %v, want 200 with A's 422", resp.StatusCode, sr.ReplicaErrors)
	}
	if after, _ := json.Marshal(copyOf(aSrv, "P01", "S01")); !bytes.Equal(after, before) {
		t.Fatalf("A's copy changed under the refused catch-up: %d bytes, was %d", len(after), len(before))
	}
	if st := shardStats(t, a); len(st.Replicas) != 0 {
		t.Errorf("A still lists %+v under replicas", st.Replicas)
	}
	resp = postJSON(t, a+"/v1/sessions/S01/promote", PromoteRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("promote on A: status %d, want 404", resp.StatusCode)
	}
	if n := aSrv.met.replDiverged.Value() - diverged; n != 1 {
		t.Errorf("stsmatch_repl_diverged_total rose by %d on A, want 1", n)
	}
	// ingestBatches fails on any replica error.
	ingestBatches(t, b, "S01", samples[2*third+20:], 64)
}

// TestPromoteBackShedsTombstone: a session migrated A→B and back B→A is
// live on A again, and A's stale tombstone naming B goes with the
// promote, so a later A→C moves it.
func TestPromoteBackShedsTombstone(t *testing.T) {
	_, a := newAdvertised(t, Options{})
	_, b := newAdvertised(t, Options{})
	_, c := newAdvertised(t, Options{})
	resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	ingestBatches(t, a, "S01", respSamples(t, 37, 40), 256)
	acked, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr")
	for _, hop := range [][2]string{{a, b}, {b, a}, {a, c}} {
		if code, _ := migrateTo(t, hop[0], "S01", hop[1]); code != http.StatusOK {
			t.Fatalf("migrate %s → %s: status %d", hop[0], hop[1], code)
		}
	}
	got, code := getJSON[PLRResponse](t, c+"/v1/sessions/S01/plr")
	if code != http.StatusOK || !reflect.DeepEqual(got.Vertices, acked.Vertices) {
		t.Fatalf("C serves the session: status %d, %d vertices; want 200 with the %d acked", code, len(got.Vertices), len(acked.Vertices))
	}
	if code, loc := migrateTo(t, a, "S01", c); code != http.StatusGone || loc != c {
		t.Errorf("re-driven migrate on A: %d naming %q, want 410 naming C", code, loc)
	}
	if st := shardStats(t, a); len(st.Retired) != 1 || st.Retired[0].Owner != c || st.Retired[0].Epoch != 4 {
		t.Errorf("A's retired list = %+v, want S01 handed to C at epoch 4", st.Retired)
	}
}

// TestConcurrentIngestsOnDeposedPrimary: writes racing into a primary
// whose follower was promoted over it all meet the higher epoch, in
// whichever order their flushes run: the primary yields once, and none
// of the writes is acknowledged — each answers 410 naming the new owner
// or, when the new owner lacks an earlier racing write's vertices, 409.
func TestConcurrentIngestsOnDeposedPrimary(t *testing.T) {
	_, primURL := newAdvertised(t, Options{})
	_, folURL := newAdvertised(t, Options{})
	resp := postJSON(t, primURL+"/v1/sessions", CreateSessionRequest{
		PatientID: "P01", SessionID: "S01", Replicate: []string{folURL},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 43, 80)
	half := len(samples) / 2
	ingestBatches(t, primURL, "S01", samples[:half], 256)
	if resp := postJSON(t, folURL+"/v1/sessions/S01/promote", PromoteRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}

	const writers = 8
	per := (len(samples) - half) / writers
	codes := make([]int, writers)
	var wg sync.WaitGroup
	for i := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(samples[half+i*per : half+(i+1)*per])
			resp, err := http.Post(primURL+"/v1/sessions/S01/samples", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusGone && code != http.StatusConflict && code != http.StatusBadRequest {
			t.Errorf("racing write %d answered %d, want it unacknowledged", i, code)
		}
	}
	if st := shardStats(t, primURL); len(st.Retired) != 1 || st.Retired[0].Owner != folURL || st.Retired[0].Epoch != 2 {
		t.Errorf("the deposed primary's retired list = %+v, want S01 handed to %s at epoch 2", st.Retired, folURL)
	}
}

// TestYieldNeedsAKnownOwner: a node that advertises no URL names no
// owner, in its 412 or as a batch's source, and nothing is handed over
// to it. S01: the deposed primary's shipment meets the promoted
// follower's 412 naming no owner, and the primary stops acknowledging
// (409) instead of retiring. S02: the promoted follower's catch-up
// reaches the old primary with no source; the old primary refuses it,
// keeps the session and writes no tombstone.
func TestYieldNeedsAKnownOwner(t *testing.T) {
	_, primURL := newAdvertised(t, Options{})
	_, fol := newReplServer(t, Options{})
	samples := respSamples(t, 47, 60)
	half := len(samples) / 2
	for sid, replicate := range map[string][]string{"S01": nil, "S02": {primURL}} {
		resp := postJSON(t, primURL+"/v1/sessions", CreateSessionRequest{PatientID: "P" + sid, SessionID: sid, Replicate: []string{fol.URL}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", sid, resp.StatusCode)
		}
		ingestBatches(t, primURL, sid, samples[:half], 256)
		if resp := postJSON(t, fol.URL+"/v1/sessions/"+sid+"/promote", PromoteRequest{Replicate: replicate}); resp.StatusCode != http.StatusOK {
			t.Fatalf("promote %s: status %d", sid, resp.StatusCode)
		}
	}

	resp := postJSON(t, fol.URL+"/v1/sessions/S02/samples", samples[half:])
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 {
		t.Fatalf("the promoted follower's ingest: status %d, replica errors %v, want 200 with the old primary's refusal", resp.StatusCode, sr.ReplicaErrors)
	}
	for _, sid := range []string{"S01", "S02"} {
		resp := postJSON(t, primURL+"/v1/sessions/"+sid+"/samples", samples[half:])
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "epoch 2") {
			t.Errorf("%s: ingest on the old primary: status %d %s, want 409 naming epoch 2", sid, resp.StatusCode, body)
		}
	}
	if st := shardStats(t, primURL); len(st.Sessions) != 2 || len(st.Retired) != 0 {
		t.Errorf("old primary's inventory: sessions %+v retired %+v, want both sessions kept, no tombstone", st.Sessions, st.Retired)
	}
}

// TestFollowerCannotVouchForOwner: a follower's copy is never longer
// than its owner's, so no follower's 412 can vouch for an owner short of
// what the old primary acknowledged. A acked a write with B cut off; B,
// promoted over it, ships its catch-up to C, which kept that write: C
// refuses it (422), keeps its copy and follows no more, but stays fenced
// at B's epoch. A's next shipment meets B's 412 short of what A
// acknowledged, or, with B still cut off, C's 412 naming B: either way A
// keeps its copy and answers 409.
func TestFollowerCannotVouchForOwner(t *testing.T) {
	for _, cut := range []bool{false, true} {
		t.Run(map[bool]string{false: "B reachable", true: "B cut off"}[cut], func(t *testing.T) {
			followerCannotVouchForOwner(t, cut)
		})
	}
}

func followerCannotVouchForOwner(t *testing.T, cut bool) {
	drop := &shipDropper{}
	_, a := newAdvertised(t, Options{ReplicateTransport: drop})
	_, b := newAdvertised(t, Options{})
	cs, c := newAdvertised(t, Options{})
	drop.target = b
	if resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: []string{b, c}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 53, 90)
	third := len(samples) / 3
	ingestBatches(t, a, "S01", samples[:third], 256)
	drop.drops.Store(1 << 20)
	resp := postJSON(t, a+"/v1/sessions/S01/samples", samples[third:2*third])
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 {
		t.Fatalf("ingest with B cut off: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}
	if !cut {
		drop.drops.Store(0)
	}
	held, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr")

	if resp := postJSON(t, b+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{c}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	resp = postJSON(t, b+"/v1/sessions/S01/samples", []SampleIn{}) // ships B's catch-up to C
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 || !strings.HasPrefix(sr.ReplicaErrors[0], c) {
		t.Fatalf("empty ingest on B: status %d, replica errors %v, want C's refusal", resp.StatusCode, sr.ReplicaErrors)
	}
	if st := shardStats(t, c); len(st.Replicas) != 0 {
		t.Fatalf("C still follows after refusing B's catch-up: %+v", st.Replicas)
	}
	if resp := postJSON(t, c+"/v1/sessions/S01/promote", PromoteRequest{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("promote on C after its refusal: status %d, want 404", resp.StatusCode)
	}
	if got, owner := len(copyOf(cs, "P01", "S01")), plrLen(t, b, "S01"); got != len(held.Vertices) || owner >= got {
		t.Fatalf("C holds %d vertices, B %d, A acked %d: fixture does not diverge", got, owner, len(held.Vertices))
	}

	resp = postJSON(t, a+"/v1/sessions/S01/samples", samples[2*third:])
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "epoch 2") {
		t.Fatalf("ingest on A: status %d %s, want 409 naming epoch 2", resp.StatusCode, body)
	}
	// The refused write stayed in A's copy, unacknowledged; nothing
	// later is stored.
	kept, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr")
	if len(kept.Vertices) < len(held.Vertices) || !reflect.DeepEqual(kept.Vertices[:len(held.Vertices)], held.Vertices) {
		t.Errorf("A serves %d vertices, not beginning with the %d it acked", len(kept.Vertices), len(held.Vertices))
	}
	resp = postJSON(t, a+"/v1/sessions/S01/samples", samples[len(samples)-1:])
	resp.Body.Close()
	if n := plrLen(t, a, "S01"); resp.StatusCode != http.StatusConflict || n != len(kept.Vertices) {
		t.Errorf("a later ingest on A: status %d, %d vertices (was %d); want 409, nothing stored", resp.StatusCode, n, len(kept.Vertices))
	}
	if st := shardStats(t, a); len(st.Retired) != 0 {
		t.Errorf("A's retired list = %+v, want none", st.Retired)
	}
}

// TestYieldGuardIsTheAckedLength: the guard a 412 meets is the longest
// stream this node acknowledged, not the length before the write whose
// flush met it. A write acked with the owner-to-be cut off raises it; a
// flush that started before that write (called directly here, as a
// racing flush would) and meets the owner's 412 short of it does not
// yield, and one that meets the owner holding it does.
func TestYieldGuardIsTheAckedLength(t *testing.T) {
	drop := &shipDropper{}
	a, aURL := newAdvertised(t, Options{ReplicateTransport: drop})
	_, o := newAdvertised(t, Options{})
	drop.target = o
	if resp := postJSON(t, aURL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: []string{o}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 59, 60)
	half := len(samples) / 2
	ingestBatches(t, aURL, "S01", samples[:half], 256)
	short := plrLen(t, aURL, "S01")
	drop.drops.Store(1 << 20)
	resp := postJSON(t, aURL+"/v1/sessions/S01/samples", samples[half:])
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 {
		t.Fatalf("ingest with the owner-to-be cut off: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}
	full := plrLen(t, aURL, "S01")
	if full <= short {
		t.Fatalf("the cut-off write added no vertex (%d → %d): fixture too short", short, full)
	}

	a.mu.Lock()
	repl := a.sessions["S01"].repl
	a.mu.Unlock()
	link := repl.links[0]
	a.yieldTo(context.Background(), repl, link, &staleEpoch{Epoch: 2, Owner: o, Shared: short})
	if st := shardStats(t, aURL); len(st.Sessions) != 1 || len(st.Retired) != 0 {
		t.Fatalf("after a 412 short of the acked stream: sessions %+v retired %+v, want S01 kept", st.Sessions, st.Retired)
	}
	a.yieldTo(context.Background(), repl, link, &staleEpoch{Epoch: 2, Owner: o, Shared: full})
	if st := shardStats(t, aURL); len(st.Retired) != 1 || st.Retired[0].Owner != o || st.Retired[0].Epoch != 2 {
		t.Errorf("after a 412 holding the acked stream: retired %+v, want S01 handed to %s at epoch 2", st.Retired, o)
	}
}

// TestYieldLeavesTheNewOwnersFollowers: at R=3, B is promoted over A and
// keeps C; the promote ships nothing, so C still follows A at epoch 1.
// A's next shipment meets B's 412 and A yields, but it cannot tell which
// followers B keeps, so it tells none of them the session closed: C
// keeps its copy, a failover candidate until B's catch-up re-anchors it.
func TestYieldLeavesTheNewOwnersFollowers(t *testing.T) {
	_, a := newAdvertised(t, Options{})
	_, b := newAdvertised(t, Options{})
	_, c := newAdvertised(t, Options{})
	if resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: []string{b, c}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 61, 60)
	half := len(samples) / 2
	ingestBatches(t, a, "S01", samples[:half], 256)
	if resp := postJSON(t, b+"/v1/sessions/S01/promote", PromoteRequest{Replicate: []string{c}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	resp := postJSON(t, a+"/v1/sessions/S01/samples", samples[half:])
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || resp.Header.Get("Location") != b {
		t.Fatalf("ingest on A: status %d, Location %q; want 410 naming %s", resp.StatusCode, resp.Header.Get("Location"), b)
	}
	if st := shardStats(t, c); len(st.Replicas) != 1 || st.Replicas[0].SessionID != "S01" {
		t.Errorf("C's replicas after A yielded: %+v, want S01 kept", st.Replicas)
	}
}

// supersededWithoutPrefix is TestYieldNeedsTheSharedPrefix's setup: A
// acks a write with B cut off, B is promoted over it and grows past A's
// acked length, and A's next ingest answers 409 naming epoch 2. A runs
// with opts, and mid, when given, runs on A's URL between its first write
// and the cut-off one. It returns A's URL and the PLR A acknowledged.
func supersededWithoutPrefix(t *testing.T, opts Options, mid func(a string)) (string, PLRResponse) {
	t.Helper()
	drop := &shipDropper{}
	opts.ReplicateTransport = drop
	_, a := newAdvertised(t, opts)
	_, b := newAdvertised(t, Options{})
	drop.target = b
	if resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: []string{b}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 73, 120)
	fifth := len(samples) / 5
	ingestBatches(t, a, "S01", samples[:fifth], 256)
	if mid != nil {
		mid(a)
	}
	drop.drops.Store(1 << 20)
	resp := postJSON(t, a+"/v1/sessions/S01/samples", samples[fifth:2*fifth])
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 {
		t.Fatalf("ingest with B cut off: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}
	drop.drops.Store(0)
	acked, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr")

	if resp := postJSON(t, b+"/v1/sessions/S01/promote", PromoteRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	ingestBatches(t, b, "S01", samples[2*fifth:len(samples)-1], 256)
	if n := plrLen(t, b, "S01"); n <= len(acked.Vertices) {
		t.Fatalf("B holds %d vertices, A acked %d: fixture does not grow past it", n, len(acked.Vertices))
	}

	resp = postJSON(t, a+"/v1/sessions/S01/samples", samples[len(samples)-1:])
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "epoch 2") {
		t.Fatalf("A's next ingest: status %d %s, want 409 naming epoch 2", resp.StatusCode, body)
	}
	return a, acked
}

// TestSupersededStagesNoSubscriptionRecord: a node superseded in a
// session's scope refuses a subscription there and stages no record on
// a link, so registering subscriptions there (each one refused) ships no
// catch-up.
func TestSupersededStagesNoSubscriptionRecord(t *testing.T) {
	a, acked := supersededWithoutPrefix(t, Options{}, nil)
	before := scrapeMetrics(t, a)["stsmatch_repl_snapshots_total"]
	for i := 0; i < 5; i++ {
		resp := postJSON(t, a+"/v1/subscriptions", SubscriptionRequest{
			ID: fmt.Sprintf("late-%d", i), Seq: plr.Sequence(acked.Vertices[len(acked.Vertices)-6:]), PatientID: "P01",
		})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// A superseded node takes no write in the session's scope.
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "epoch 2") {
			t.Fatalf("registration %d on the superseded node: status %d %s, want 409 naming epoch 2", i, resp.StatusCode, body)
		}
	}
	if after := scrapeMetrics(t, a)["stsmatch_repl_snapshots_total"]; after != before {
		t.Errorf("5 registrations on the superseded node shipped %v catch-ups, want 0", after-before)
	}
}

// TestYieldNeedsTheSharedPrefix: a yield asks the owner's stream to
// share every vertex this node acknowledged, not to be as long. A acks a
// write with B cut off; B, promoted over it, grows past A's acked length
// with samples A never saw. A's next ingest then meets B's 412: B shares
// only the vertices from before the cut, so A keeps its copy byte for
// byte, answers 409 naming the epoch and writes no tombstone.
func TestYieldNeedsTheSharedPrefix(t *testing.T) {
	a, acked := supersededWithoutPrefix(t, Options{}, nil)
	if kept, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr"); !reflect.DeepEqual(kept, acked) {
		t.Errorf("A serves %d vertices, it acked %d: the copy changed", len(kept.Vertices), len(acked.Vertices))
	}
	if st := shardStats(t, a); len(st.Retired) != 0 || len(st.Sessions) != 1 {
		t.Errorf("A's inventory: sessions %+v retired %+v, want S01 kept and no tombstone", st.Sessions, st.Retired)
	}
}
