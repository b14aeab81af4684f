package shard_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/testutil"
)

// movedPatient picks a patient ID whose ring arc moves onto newURL
// when it joins a ring currently holding urls. The rings here are
// rebuilt with the gateway's deterministic layout (DefaultVnodes), so
// the prediction matches what Rebalance will decide at runtime.
func movedPatient(t testing.TB, urls []string, newURL string) string {
	t.Helper()
	before := shard.NewRing(0)
	for _, u := range urls {
		before.Add(u)
	}
	after := shard.NewRing(0)
	for _, u := range urls {
		after.Add(u)
	}
	after.Add(newURL)
	for i := 50; i < 250; i++ {
		pid := fmt.Sprintf("P%02d", i)
		if before.Owner(pid) != newURL && after.Owner(pid) == newURL {
			return pid
		}
	}
	t.Fatal("no candidate patient arc moves onto the new backend; ring fixture broken")
	return ""
}

// growBackends drives POST /v1/admin/backends — the operator's "grow
// the cluster" call: join the pool and the ring, then drain the moved
// arcs — and returns the combined report.
func growBackends(t *testing.T, gatewayURL, newURL string) shard.AddBackendResponse {
	t.Helper()
	resp := testutil.PostJSON(t, gatewayURL+"/v1/admin/backends", shard.AddBackendRequest{URL: newURL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin add backend: status %d", resp.StatusCode)
	}
	return testutil.Decode[shard.AddBackendResponse](t, resp)
}

// assertSessionMoved fails unless the report shows sid landing on
// wantTo.
func assertSessionMoved(t *testing.T, rep shard.RebalanceReport, sid, wantTo string) {
	t.Helper()
	for _, m := range rep.Moved {
		if m.SessionID == sid {
			if m.To != wantTo {
				t.Fatalf("session %s moved to %s, want %s", sid, m.To, wantTo)
			}
			return
		}
	}
	t.Fatalf("session %s not in the moved set %+v", sid, rep.Moved)
}

// assertPLREqual asserts zero acknowledged-vertex loss: the PLR served
// for the session through the gateway is vertex-for-vertex the PLR of
// the single-node oracle that ingested exactly the acked data.
func assertPLREqual(t *testing.T, label, gatewayURL, oracleURL, sid string) server.PLRResponse {
	t.Helper()
	got := testutil.GetJSON[server.PLRResponse](t, gatewayURL+"/v1/sessions/"+sid+"/plr")
	want := testutil.GetJSON[server.PLRResponse](t, oracleURL+"/v1/sessions/"+sid+"/plr")
	if len(got.Vertices) != len(want.Vertices) {
		t.Fatalf("%s: PLR length %d, oracle has %d: acknowledged data lost",
			label, len(got.Vertices), len(want.Vertices))
	}
	for i := range want.Vertices {
		if !reflect.DeepEqual(got.Vertices[i], want.Vertices[i]) {
			t.Fatalf("%s: PLR vertex %d diverged: got %+v want %+v",
				label, i, got.Vertices[i], want.Vertices[i])
		}
	}
	return want
}

// assertMatchEquivalence asserts POST /v1/match through the gateway is
// byte-identical to the oracle at k=0 and k=10, with no degraded
// marker and the expected healthy fan-out.
func assertMatchEquivalence(t *testing.T, label, gatewayURL, oracleURL string, req server.MatchRequest, wantOK, wantQueried int) {
	t.Helper()
	for _, k := range []int{0, 10} {
		r := req
		r.K = k
		oresp := testutil.PostJSON(t, oracleURL+"/v1/match", r)
		if oresp.StatusCode != http.StatusOK {
			t.Fatalf("%s k=%d: oracle match status %d", label, k, oresp.StatusCode)
		}
		om := testutil.Decode[server.MatchResponse](t, oresp)
		if len(om.Matches) == 0 {
			t.Fatalf("%s k=%d: oracle found no matches; fixture is broken", label, k)
		}
		raw, res := matchBody(t, gatewayURL, r)
		if bytes.Contains(raw, []byte(`"degraded"`)) {
			t.Errorf("%s k=%d: match response carries a degraded marker: %s", label, k, trunc(raw))
		}
		if res.ShardsOK != wantOK || res.ShardsQueried != wantQueried {
			t.Errorf("%s k=%d: fan-out %d/%d, want %d/%d",
				label, k, res.ShardsOK, res.ShardsQueried, wantOK, wantQueried)
		}
		ob, _ := json.Marshal(om.Matches)
		gb, _ := json.Marshal(res.Matches)
		if !bytes.Equal(ob, gb) {
			t.Errorf("%s k=%d: matches differ from oracle\noracle:  %s\ngateway: %s",
				label, k, trunc(ob), trunc(gb))
		}
	}
}

// ingestContextPatients streams n fully-ingested context patients into
// both deployments so similarity search has cross-patient candidates.
// They complete before any migration, so an oracle crash-recovery at
// the cutover point is byte-identical for them.
func ingestContextPatients(t *testing.T, clusterURL, oracleURL string, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		pid := fmt.Sprintf("P%02d", i)
		sid := "S-" + pid
		createSession(t, clusterURL, pid, sid)
		createSession(t, oracleURL, pid, sid)
		for _, b := range respBatches(t, int64(400+i), 45) {
			ingestBatch(t, clusterURL, sid, b)
			ingestBatch(t, oracleURL, sid, b)
		}
	}
}

// TestMigrateLiveSession is the tentpole happy path: grow a 2-backend
// replicated deployment to 3 through POST /v1/admin/backends while a
// session is mid-stream. The rebalance must move exactly the sessions
// whose arcs moved, the drained session must keep ingesting through
// the gateway on its new primary with zero acked-vertex loss, the old
// primary must answer 410 Gone with a redirect hint, and POST
// /v1/match must stay byte-identical to a single-node oracle: no
// tombstoned or stale copy answers for the moved session.
func TestMigrateLiveSession(t *testing.T) {
	c := testutil.StartCluster(t, 2, 2)
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)
	ingestContextPatients(t, c.URL, oracle.URL, 4)

	// Boot the third backend and pick a victim patient whose arc will
	// move onto it; stream half the victim's trace before the grow.
	n3 := c.AddNode(nil)
	pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL}, n3.URL)
	sid := "S-" + pid
	createSession(t, c.URL, pid, sid)
	createSession(t, oracle.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}
	src, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", src, owners)
	}

	moved0 := scrapeCounter(t, c.URL, "stsmatch_gateway_rebalance_sessions_moved_total")
	ar := growBackends(t, c.URL, n3.URL)
	if len(ar.Backends) != 3 {
		t.Fatalf("backends after grow = %v, want 3", ar.Backends)
	}
	if len(ar.Rebalance.Failed) != 0 {
		t.Fatalf("rebalance failures on a healthy cluster: %v", ar.Rebalance.Failed)
	}
	assertSessionMoved(t, ar.Rebalance, sid, n3.URL)
	if got := scrapeCounter(t, c.URL, "stsmatch_gateway_rebalance_sessions_moved_total") - moved0; got != float64(len(ar.Rebalance.Moved)) {
		t.Errorf("moved counter advanced by %v, want %d", got, len(ar.Rebalance.Moved))
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != n3.URL {
		t.Fatalf("placement after grow = %q, want the new backend %q", p, n3.URL)
	}

	// The source must answer direct requests with 410 + redirect hint.
	gresp, err := http.Get(src + "/v1/sessions/" + sid + "/plr")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusGone {
		t.Fatalf("old primary answered %d, want 410 Gone", gresp.StatusCode)
	}
	if loc := gresp.Header.Get("Location"); loc != n3.URL {
		t.Fatalf("410 Location = %q, want %q", loc, n3.URL)
	}

	// Crash the oracle at the cutover point: promotion primes the
	// target's FSM through the same path as WAL crash recovery, so the
	// migrated session must be indistinguishable from a recovered node.
	oracle.Close()
	oracle = newDurableOracle(t, oracleDir)

	// The second half streams through the gateway onto the new primary.
	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	want := assertPLREqual(t, "post-migration", c.URL, oracle.URL, sid)

	c.Probe(1)
	seq := plr.Sequence(want.Vertices[len(want.Vertices)-10:])
	req := server.MatchRequest{Seq: seq, PatientID: pid, SessionID: sid}
	assertMatchEquivalence(t, "post-migration", c.URL, oracle.URL, req, 3, 3)

	if got := scrapeCounter(t, src, "stsmatch_migrations_total"); got < 1 {
		t.Errorf("source migrations counter = %v, want >= 1", got)
	}
	logMetricLines(t, "gateway", c.URL,
		"stsmatch_gateway_rebalances_total", "stsmatch_gateway_rebalance_sessions_moved_total",
		"stsmatch_gateway_rebalance_failures_total")
	logMetricLines(t, "source "+src, src,
		"stsmatch_migrations_total", "stsmatch_migration_bytes_shipped_total",
		"stsmatch_migration_sessions_in_flight")
}

// TestMigrateKillGatewayMidDrain kills the orchestrator: the rebalance
// context is cancelled at the first migration's catch-up fault point,
// stranding the drain in a mix of committed, aborted, and in-flight
// moves. A brand-new gateway (a restarted process with an empty
// placement table) must rediscover actual placement from the shards
// and re-drive exactly the remainder to convergence, with zero acked
// loss and oracle-identical matches.
func TestMigrateKillGatewayMidDrain(t *testing.T) {
	c := testutil.StartCluster(t, 2, 2)
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)
	ingestContextPatients(t, c.URL, oracle.URL, 3)

	n3 := c.AddNode(nil)
	pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL}, n3.URL)
	sid := "S-" + pid
	createSession(t, c.URL, pid, sid)
	createSession(t, oracle.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	// The "gateway crash": cancel the drain the moment any migration
	// reaches its catch-up fault point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	for _, n := range c.Nodes[:2] {
		n.Server.SetMigrationHook(func(phase string) {
			if phase == "catchup" {
				once.Do(cancel)
			}
		})
	}
	if err := c.Gateway.AddBackend(n3.URL); err != nil {
		t.Fatal(err)
	}
	rep := c.Gateway.Rebalance(ctx)
	t.Logf("interrupted drain: checked %d moved %d failed %d",
		rep.Checked, len(rep.Moved), len(rep.Failed))
	for _, n := range c.Nodes[:2] {
		n.Server.SetMigrationHook(nil)
	}

	// A fresh gateway over the full backend set: no inherited placement
	// table, no inherited ring state beyond the configured membership.
	gw2, err := shard.NewGateway([]string{c.Nodes[0].URL, c.Nodes[1].URL, n3.URL}, shard.Options{
		Transport:      c.Transport,
		Replicas:       2,
		HealthInterval: -1,
		FailThreshold:  1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	ts2 := httptest.NewServer(gw2)
	defer ts2.Close()

	rep2 := gw2.Rebalance(context.Background())
	if len(rep2.Failed) != 0 {
		t.Fatalf("re-driven rebalance still failing: %v", rep2.Failed)
	}
	if p, _, _ := gw2.SessionPlacement(sid); p != n3.URL {
		t.Fatalf("placement after re-drive = %q, want %q", p, n3.URL)
	}

	oracle.Close() // cutover point: promotion == crash recovery
	oracle = newDurableOracle(t, oracleDir)
	for _, b := range batches[half:] {
		ingestBatch(t, ts2.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	want := assertPLREqual(t, "post-re-drive", ts2.URL, oracle.URL, sid)
	gw2.Pool().ProbeAll()
	seq := plr.Sequence(want.Vertices[len(want.Vertices)-10:])
	assertMatchEquivalence(t, "after gateway crash", ts2.URL, oracle.URL,
		server.MatchRequest{Seq: seq, PatientID: pid, SessionID: sid}, 3, 3)
}

// TestMigrateKillSourceMidCatchup kills the migration source at its
// catch-up fault point — inbound requests aborted, outbound WAL
// shipments dropped, like a machine falling off the network. The first
// drain pass must fail cleanly (no half-moved state), and after the
// health checker ejects the corpse, a re-driven rebalance must fail
// the session over onto its surviving replica — which holds every
// acked vertex — and complete the move from there.
func TestMigrateKillSourceMidCatchup(t *testing.T) {
	kills := make([]*atomic.Bool, 2)
	c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(i int, o *server.Options) {
			kills[i] = &atomic.Bool{}
			k := kills[i]
			o.ReplicateTransport = testutil.NewFaultTransport().DropWhile(k.Load)
		}
	})
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)
	ingestContextPatients(t, c.URL, oracle.URL, 3)

	n3 := c.AddNode(nil)
	pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL}, n3.URL)
	sid := "S-" + pid
	createSession(t, c.URL, pid, sid)
	createSession(t, oracle.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	src, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", src, owners)
	}
	srcNode := c.Node(src)
	srcIdx := 0
	for i, n := range c.Nodes[:2] {
		if n.URL == src {
			srcIdx = i
		}
	}
	var once sync.Once
	srcNode.Server.SetMigrationHook(func(phase string) {
		if phase != "catchup" {
			return
		}
		once.Do(func() {
			kills[srcIdx].Store(true) // outbound shipments die
			srcNode.PartitionOff()    // inbound requests die
		})
	})

	ar := growBackends(t, c.URL, n3.URL)
	if len(ar.Rebalance.Failed) == 0 {
		t.Fatalf("drain with a dying source reported no failures: %+v", ar.Rebalance)
	}
	t.Logf("first pass: moved %d failed %d", len(ar.Rebalance.Moved), len(ar.Rebalance.Failed))

	// Eject the corpse, then re-drive. The failover inside the re-drive
	// promotes the surviving replica, and the move completes from it.
	c.Probe(1)
	resp := testutil.PostJSON(t, c.URL+"/v1/admin/rebalance", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-drive: status %d", resp.StatusCode)
	}
	rep2 := testutil.Decode[shard.RebalanceReport](t, resp)
	if len(rep2.Failed) != 0 {
		t.Fatalf("re-driven rebalance still failing: %v", rep2.Failed)
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != n3.URL {
		t.Fatalf("placement after re-drive = %q, want %q", p, n3.URL)
	}

	// Cutover point: the replica was promoted through the recovery-primed
	// path and the target was primed from its snapshot.
	oracle.Close()
	oracle = newDurableOracle(t, oracleDir)
	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	want := assertPLREqual(t, "post-source-kill", c.URL, oracle.URL, sid)
	c.Probe(1)
	seq := plr.Sequence(want.Vertices[len(want.Vertices)-10:])
	// The dead source stays in the scatter set until an operator removes
	// it: 2 of 3 shards answer, and replicas cover every arc, so the
	// result is complete and undegraded.
	assertMatchEquivalence(t, "after source kill", c.URL, oracle.URL,
		server.MatchRequest{Seq: seq, PatientID: pid, SessionID: sid}, 2, 3)
	logMetricLines(t, "gateway", c.URL,
		"stsmatch_gateway_rebalance_failures_total", "stsmatch_gateway_failovers_total")
}

// TestRebalanceKeepsEjectedFollower: a rebalance that runs while the
// gateway has ejected one of the moved session's designated followers
// still gives the new primary that follower. At R=3 the gateway loses
// the third owner (the shards still reach it), grows from 3 shards to 4
// and later readmits it. The new primary must ship to both designated
// followers, so that with it and the old source both dead the third
// owner, holding every acked vertex, takes the session over.
func TestRebalanceKeepsEjectedFollower(t *testing.T) {
	var cut atomic.Pointer[string]
	c := testutil.StartCluster(t, 3, 3, func(cfg *testutil.ClusterConfig) {
		cfg.Gateway.Transport = cutTransport(t, &cut)
	})
	urls := []string{c.Nodes[0].URL, c.Nodes[1].URL, c.Nodes[2].URL}
	n4 := c.AddNode(nil)
	pid := movedPatient(t, urls, n4.URL)
	sid := "S-" + pid
	grown := shard.NewRing(0)
	for _, u := range append(urls, n4.URL) {
		grown.Add(u)
	}
	desired := grown.Owners(pid, 3)

	createSession(t, c.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
	}
	src, _, _ := c.Gateway.SessionPlacement(sid)
	if desired[0] != n4.URL || desired[1] != src {
		t.Fatalf("grown ring designates %v for %s, want [%s %s ...]; ring fixture broken", desired, pid, n4.URL, src)
	}
	third := desired[2]

	cut.Store(&third)
	c.Probe(1) // the gateway ejects the third owner; the shards still reach it
	assertSessionMoved(t, growBackends(t, c.URL, n4.URL).Rebalance, sid, n4.URL)
	cut.Store(nil)
	c.Probe(2) // readmitted
	resp := testutil.PostJSON(t, c.URL+"/v1/admin/rebalance", struct{}{})
	if rep := testutil.Decode[shard.RebalanceReport](t, resp); len(rep.Moved) != 0 || len(rep.Failed) != 0 {
		t.Fatalf("second rebalance moved %v, failed %v; want nothing to do", rep.Moved, rep.Failed)
	}
	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
	}

	st := testutil.GetJSON[server.ShardStatsResponse](t, n4.URL+"/v1/shard/stats")
	var links []string
	for _, e := range st.Sessions {
		if e.SessionID == sid {
			for _, l := range e.Links {
				links = append(links, l.Target)
			}
		}
	}
	slices.Sort(links)
	want := slices.Clone(desired[1:])
	slices.Sort(want)
	if !slices.Equal(links, want) {
		t.Errorf("new primary %s ships %s to %v, want the designated followers %v", n4.URL, sid, links, want)
	}

	acked := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	c.Kill(n4.URL)
	c.Kill(src)
	c.Probe(1)
	got, err := http.Get(c.URL + "/v1/sessions/" + sid + "/plr")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("PLR with the designated follower %s alive: status %d, want 200", third, got.StatusCode)
	}
	if plr := testutil.Decode[server.PLRResponse](t, got); !reflect.DeepEqual(plr.Vertices, acked.Vertices) {
		t.Fatalf("PLR after failover has %d vertices, %d were acked", len(plr.Vertices), len(acked.Vertices))
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != third {
		t.Fatalf("placement after failover = %q, want %q", p, third)
	}
}

// TestMigrateKillTargetMidCutover kills the migration target at the
// source's cutover fault point — after the session is fenced and the
// prepare record is durable, before the final drain and promote. The
// source must roll the cutover back (abort record, unfence) and keep
// serving the session as if the migration was never attempted: ingest
// through the gateway continues on the old primary with zero loss and
// oracle-identical matches. The oracle never crashes, because no
// promotion ever happened.
func TestMigrateKillTargetMidCutover(t *testing.T) {
	c := testutil.StartCluster(t, 2, 2)
	oracle := newOracleTS(t)
	ingestContextPatients(t, c.URL, oracle.URL, 3)

	n3 := c.AddNode(nil)
	pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL}, n3.URL)
	sid := "S-" + pid
	createSession(t, c.URL, pid, sid)
	createSession(t, oracle.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}
	src, _, _ := c.Gateway.SessionPlacement(sid)
	srcNode := c.Node(src)
	fails0 := scrapeCounter(t, src, "stsmatch_migration_failures_total")

	var once sync.Once
	srcNode.Server.SetMigrationHook(func(phase string) {
		if phase == "cutover" {
			once.Do(n3.PartitionOff)
		}
	})

	ar := growBackends(t, c.URL, n3.URL)
	if len(ar.Rebalance.Failed) == 0 {
		t.Fatalf("drain onto a dead target reported no failures: %+v", ar.Rebalance)
	}
	if _, failed := ar.Rebalance.Failed[sid]; !failed {
		t.Fatalf("victim %s not among the failed moves: %v", sid, ar.Rebalance.Failed)
	}
	if got := scrapeCounter(t, src, "stsmatch_migration_failures_total") - fails0; got < 1 {
		t.Errorf("source migration_failures advanced by %v, want >= 1", got)
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != src {
		t.Fatalf("placement moved to %q despite the failed cutover; want it kept on %q", p, src)
	}

	// The abort must have unfenced the session: the stream continues on
	// the old primary through the gateway as if nothing happened.
	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}

	want := assertPLREqual(t, "post-abort", c.URL, oracle.URL, sid)
	c.Probe(1) // ejects the dead target from the scatter set
	seq := plr.Sequence(want.Vertices[len(want.Vertices)-10:])
	assertMatchEquivalence(t, "after target kill", c.URL, oracle.URL,
		server.MatchRequest{Seq: seq, PatientID: pid, SessionID: sid}, 2, 3)
	logMetricLines(t, "source "+src, src,
		"stsmatch_migrations_total", "stsmatch_migration_failures_total")
}

// TestStandingQuerySurvivesMigration is the push-path equivalence
// satellite: a standing query registered through the gateway keeps its
// ONE event stream across a live migration of its session. The source
// expels the subscription at commit (waking the stream), the gateway
// proxy re-resolves to the new primary and resumes with Last-Event-ID,
// and the consumer sees exactly the polled-oracle diff — contiguous
// sequence numbers, no duplicate, no loss, bit-identical distances.
func TestStandingQuerySurvivesMigration(t *testing.T) {
	batches := respBatches(t, 77, 90)
	q1, half := len(batches)/4, len(batches)/2

	// Polled single-node oracle, crash-recovered at the cutover point.
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)

	c := testutil.StartCluster(t, 2, 2)
	n3 := c.AddNode(nil)
	pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL}, n3.URL)
	sid := "S-" + pid

	createSession(t, oracle.URL, pid, sid)
	for _, b := range batches[:q1] {
		ingestBatch(t, oracle.URL, sid, b)
	}
	pr := testutil.GetJSON[server.PLRResponse](t, oracle.URL+"/v1/sessions/"+sid+"/plr")
	if len(pr.Vertices) < 10 {
		t.Fatalf("PLR too short at registration point: %d", len(pr.Vertices))
	}
	qseq := plr.Sequence(pr.Vertices[len(pr.Vertices)-8:])
	oracleReq := server.MatchRequest{Seq: qseq, SessionID: sid}
	m0 := matchSet(t, oracle.URL, oracleReq)
	for _, b := range batches[q1:half] {
		ingestBatch(t, oracle.URL, sid, b)
	}
	mHalf := matchSet(t, oracle.URL, oracleReq)
	oracle.Close()
	oracle = newDurableOracle(t, oracleDir)
	for _, b := range batches[half:] {
		ingestBatch(t, oracle.URL, sid, b)
	}
	mFinal := matchSet(t, oracle.URL, oracleReq)
	expectPre := diffMatches(mHalf, m0)
	expectPost := diffMatches(mFinal, mHalf)
	if len(expectPre) == 0 || len(expectPost) == 0 {
		t.Fatalf("fixture must match on both sides of the migration: %d pre, %d post",
			len(expectPre), len(expectPost))
	}
	expected := append(append([]server.RemoteMatch{}, expectPre...), expectPost...)

	// The cluster under test: subscribe, stream, migrate mid-stream.
	createSession(t, c.URL, pid, sid)
	for _, b := range batches[:q1] {
		ingestBatch(t, c.URL, sid, b)
	}
	resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", server.SubscriptionRequest{
		ID: "mig-sub", Seq: qseq, SessionID: sid,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe via gateway: status %d", resp.StatusCode)
	}
	sr := testutil.Decode[server.SubscriptionResponse](t, resp)
	if len(sr.ReplicaErrors) > 0 {
		t.Fatalf("subscription not armed on the follower: %v", sr.ReplicaErrors)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL+"/v1/subscriptions/mig-sub/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream via gateway: status %d", stream.StatusCode)
	}

	type sseEvent struct {
		id   uint64
		data server.SubEventOut
	}
	got := make(chan sseEvent, 1024)
	go func() {
		defer close(got)
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
			case strings.HasPrefix(line, "data: "):
				if json.Unmarshal([]byte(line[len("data: "):]), &cur.data) == nil {
					got <- cur
				}
			}
		}
	}()
	var events []sseEvent
	collect := func(total int, what string) {
		t.Helper()
		deadline := time.After(60 * time.Second)
		for len(events) < total {
			select {
			case e, ok := <-got:
				if !ok {
					t.Fatalf("%s: stream ended after %d of %d events", what, len(events), total)
				}
				events = append(events, e)
			case <-deadline:
				t.Fatalf("%s: timed out with %d of %d events", what, len(events), total)
			}
		}
	}

	// Phase 1: pre-migration events flow from the original primary.
	for _, b := range batches[q1:half] {
		ingestBatch(t, c.URL, sid, b)
	}
	collect(len(expectPre), "pre-migration")

	// Live migration: the session (and its subscription, shipped inside
	// the catch-up snapshot) moves to the new backend; the source expels
	// its copy at commit, which ends the upstream stream and forces the
	// gateway proxy to re-resolve and resume on the new primary.
	ar := growBackends(t, c.URL, n3.URL)
	if len(ar.Rebalance.Failed) != 0 {
		t.Fatalf("rebalance failures: %v", ar.Rebalance.Failed)
	}
	assertSessionMoved(t, ar.Rebalance, sid, n3.URL)

	for _, b := range batches[half:] {
		ingestBatch(t, c.URL, sid, b)
	}
	collect(len(expected), "post-migration")

	// Grace period: a duplicate re-pushed across the handover would
	// arrive right behind the expected tail.
	select {
	case e, chOpen := <-got:
		if chOpen {
			t.Fatalf("extra event after the oracle diff was exhausted: %+v", e)
		}
	case <-time.After(300 * time.Millisecond):
	}
	cancel()

	for i, e := range events {
		if e.id != uint64(i+1) || e.data.Seq != e.id {
			t.Fatalf("event %d: id %d seq %d, want contiguous from 1 (duplicate or gap at the migration boundary)",
				i, e.id, e.data.Seq)
		}
		want := expected[i]
		if e.data.PatientID != want.PatientID || e.data.SessionID != want.SessionID ||
			e.data.Start != want.Start || e.data.N != want.N ||
			e.data.Relation != want.Relation ||
			e.data.Distance != want.Distance || e.data.Weight != want.Weight {
			t.Errorf("event %d diverged from the polled oracle:\n got %+v\nwant %+v", i, e.data, want)
		}
	}

	// The subscription must now live exactly once, on the new primary.
	list := testutil.GetJSON[shard.GatewaySubsResponse](t, c.URL+"/v1/subscriptions")
	found := 0
	for _, st := range list.Subscriptions {
		if st.ID == "mig-sub" {
			found++
		}
	}
	if found != 1 {
		t.Errorf("subscription listed %d times after migration, want exactly 1: %+v", found, list.Subscriptions)
	}
}

// TestMigrateTombstoneRepairsPlacement is the regression test for the
// gateway's infinite placement caching: a session migrated out-of-band
// (operator drives the shard endpoint directly, bypassing the gateway)
// leaves the gateway's cached placement stale. The next session-scoped
// request must converge in exactly one retry — the 410 tombstone's
// redirect hint repairs the placement — instead of 410ing forever.
func TestMigrateTombstoneRepairsPlacement(t *testing.T) {
	c := testutil.StartCluster(t, 2, 2)
	const pid, sid = "P70", "S-P70"
	createSession(t, c.URL, pid, sid)
	batches := respBatches(t, 31, 30)
	for _, b := range batches[:len(batches)/2] {
		ingestBatch(t, c.URL, sid, b)
	}
	src, owners, ok := c.Gateway.SessionPlacement(sid)
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v, want a primary with 2 owners", src, owners)
	}
	var target string
	for _, u := range owners {
		if u != src {
			target = u
		}
	}

	// Out-of-band migration, straight at the shard. The target is the
	// session's existing follower, so this also covers the reuse of the
	// ordinary replication link as the migration link.
	inv0 := scrapeCounter(t, c.URL, "stsmatch_gateway_placement_invalidations_total")
	resp := testutil.PostJSON(t, src+"/v1/sessions/"+sid+"/migrate",
		server.MigrateRequest{Target: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct migrate: status %d", resp.StatusCode)
	}
	mr := testutil.Decode[server.MigrateResponse](t, resp)
	if mr.Target != target {
		t.Fatalf("migrate response %+v, want a move to %s", mr, target)
	}

	// Re-driving the migrate endpoint answers like every session route
	// of a migrated session: 410 Gone, the new owner in Location.
	resp2 := testutil.PostJSON(t, src+"/v1/sessions/"+sid+"/migrate",
		server.MigrateRequest{Target: target})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone || resp2.Header.Get("Location") != target {
		t.Fatalf("re-driven migrate: status %d, Location %q; want 410 naming %s",
			resp2.StatusCode, resp2.Header.Get("Location"), target)
	}

	// The gateway still believes the old placement. One request must
	// repair it via the tombstone hint and succeed.
	gresp, err := http.Get(c.URL + "/v1/sessions/" + sid + "/plr")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("session-scoped request after out-of-band migration: status %d, want 200 via one-retry repair",
			gresp.StatusCode)
	}
	if got := scrapeCounter(t, c.URL, "stsmatch_gateway_placement_invalidations_total") - inv0; got != 1 {
		t.Errorf("placement invalidations advanced by %v, want exactly 1", got)
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != target {
		t.Fatalf("placement after repair = %q, want %q", p, target)
	}

	// And the stream keeps going on its new home.
	for _, b := range batches[len(batches)/2:] {
		ingestBatch(t, c.URL, sid, b)
	}
}

// subIDsOn lists the subscription IDs armed on one shard.
func subIDsOn(t *testing.T, nodeURL string) map[string]uint64 {
	t.Helper()
	list := testutil.GetJSON[shard.GatewaySubsResponse](t, nodeURL+"/v1/subscriptions")
	ids := make(map[string]uint64, len(list.Subscriptions))
	for _, st := range list.Subscriptions {
		ids[st.ID] = st.NextSeq
	}
	return ids
}

// TestMigrateSubscriptionRegisteredMidCutover is the regression test
// for the second-replicator fork: subscription operations the source
// acknowledges inside the cutover window (fenced and prepared, target
// not yet promoted) must ride the same link as everything else. A
// subscription registered there must be armed on the new primary — and
// on no node that neither serves nor follows the session afterwards —
// and push the events of post-move ingest through the gateway with
// contiguous sequence numbers; a subscription deleted there must not
// resurrect on the target. At the parent commit both operations were
// staged for the replicas only, so the registration was armed on no
// serving node and the deleted subscription lived on.
func TestMigrateSubscriptionRegisteredMidCutover(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			c := testutil.StartCluster(t, 2, replicas)
			n3 := c.AddNode(nil)
			pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL}, n3.URL)
			sid := "S-" + pid
			batches := respBatches(t, 77, 90)
			q1, half := len(batches)/4, len(batches)/2

			createSession(t, c.URL, pid, sid)
			for _, b := range batches[:q1] {
				ingestBatch(t, c.URL, sid, b)
			}
			pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
			if len(pr.Vertices) < 10 {
				t.Fatalf("PLR too short at registration point: %d", len(pr.Vertices))
			}
			qseq := plr.Sequence(pr.Vertices[len(pr.Vertices)-8:])
			if resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", server.SubscriptionRequest{
				ID: "doomed", Seq: qseq, SessionID: sid,
			}); resp.StatusCode != http.StatusCreated {
				t.Fatalf("pre-migration subscribe: status %d", resp.StatusCode)
			}
			for _, b := range batches[q1:half] {
				ingestBatch(t, c.URL, sid, b)
			}
			src, _, _ := c.Gateway.SessionPlacement(sid)

			// Inside the cutover window, straight at the source: register
			// one subscription, delete the other.
			type windowOps struct {
				created, deleted int
				replicaErrors    []string
			}
			ops := make(chan windowOps, 1)
			var once sync.Once
			c.Node(src).Server.SetMigrationHook(func(phase string) {
				if phase != "cutover" {
					return
				}
				once.Do(func() {
					// Not the test's goroutine: report with t.Error and let
					// the zero statuses fail the check below.
					var got windowOps
					defer func() { ops <- got }()
					body, _ := json.Marshal(server.SubscriptionRequest{ID: "mid", Seq: qseq, SessionID: sid})
					resp, err := http.Post(src+"/v1/subscriptions", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var sr server.SubscriptionResponse
					json.NewDecoder(resp.Body).Decode(&sr) //nolint:errcheck // the status is what is asserted
					resp.Body.Close()
					got.created, got.replicaErrors = resp.StatusCode, sr.ReplicaErrors
					del, err := http.NewRequest(http.MethodDelete, src+"/v1/subscriptions/doomed", nil)
					if err != nil {
						t.Error(err)
						return
					}
					if resp, err = http.DefaultClient.Do(del); err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					got.deleted = resp.StatusCode
				})
			})
			ar := growBackends(t, c.URL, n3.URL)
			if len(ar.Rebalance.Failed) != 0 {
				t.Fatalf("rebalance failures: %v", ar.Rebalance.Failed)
			}
			assertSessionMoved(t, ar.Rebalance, sid, n3.URL)
			got := <-ops
			if got.created != http.StatusCreated || got.deleted != http.StatusOK || len(got.replicaErrors) > 0 {
				t.Fatalf("operations inside the cutover window: %+v, want 201 + 200 with no replica errors", got)
			}

			for _, b := range batches[half:] {
				ingestBatch(t, c.URL, sid, b)
			}

			// Armed exactly where the session now lives or is followed.
			_, owners, _ := c.Gateway.SessionPlacement(sid)
			var produced uint64
			for _, n := range c.Nodes {
				ids := subIDsOn(t, n.URL)
				if _, ok := ids["doomed"]; ok {
					t.Errorf("%s: subscription deleted inside the cutover window is armed again", n.URL)
				}
				next, armed := ids["mid"]
				follows := false
				for _, u := range owners {
					follows = follows || u == n.URL
				}
				switch {
				case n.URL == n3.URL && !armed:
					t.Fatalf("subscription acknowledged inside the cutover window is not armed on the new primary")
				case n.URL == n3.URL:
					produced = next - 1
				case armed && !follows:
					t.Errorf("%s neither serves nor follows %s but still arms its subscription", n.URL, sid)
				}
			}
			if produced == 0 {
				t.Fatal("post-move ingest produced no events; fixture is broken")
			}

			// The events of post-move ingest arrive through the gateway,
			// which never saw the registration and finds it by scatter.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.URL+"/v1/subscriptions/mid/events", nil)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Body.Close()
			if stream.StatusCode != http.StatusOK {
				t.Fatalf("stream via gateway: status %d", stream.StatusCode)
			}
			timeout := time.AfterFunc(60*time.Second, cancel)
			defer timeout.Stop()
			var want uint64 = 1
			sc := bufio.NewScanner(stream.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
			for want <= produced && sc.Scan() {
				id, ok := strings.CutPrefix(sc.Text(), "id: ")
				if !ok {
					continue
				}
				if n, _ := strconv.ParseUint(id, 10, 64); n != want {
					t.Fatalf("event id %d, want %d: sequence not contiguous across the move", n, want)
				}
				want++
			}
			if want <= produced {
				t.Fatalf("stream ended after %d of %d events: %v", want-1, produced, sc.Err())
			}
		})
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestMigrateCloseDuringCatchup closes a session while its hand-off is
// in flight but not yet fenced — once before anything was shipped, once
// right after the snapshot landed on the target. The close must reach
// the target like any follower (no replica state for a closed session
// stays behind there), and the migrate call must answer that the
// session is gone, not that the target failed.
func TestMigrateCloseDuringCatchup(t *testing.T) {
	for _, when := range []string{"before snapshot", "after snapshot"} {
		t.Run(when, func(t *testing.T) {
			// afterShip is armed once the topology is known; it runs on the
			// source, inside the shipment it observes.
			var afterShip atomic.Pointer[func(*http.Request)]
			c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
				cfg.ConfigureServer = func(i int, o *server.Options) {
					carrier := new(testutil.Carrier)
					t.Cleanup(carrier.Close)
					o.ReplicateTransport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
						resp, err := carrier.RoundTrip(r)
						if fn := afterShip.Load(); fn != nil {
							(*fn)(r)
						}
						return resp, err
					})
				}
			})
			n3 := c.AddNode(nil)
			const pid, sid = "P70", "S-P70"
			createSession(t, c.URL, pid, sid)
			for _, b := range respBatches(t, 31, 30) {
				ingestBatch(t, c.URL, sid, b)
			}
			src, _, _ := c.Gateway.SessionPlacement(sid)
			srcNode := c.Node(src)

			// closeSession closes the session through the gateway and
			// returns when the source has let go of it: the close's own
			// flush may still be waiting for the shipment this runs inside.
			var once sync.Once
			var closed atomic.Bool
			closeSession := func() {
				once.Do(func() {
					go func() {
						req, _ := http.NewRequest(http.MethodDelete, c.URL+"/v1/sessions/"+sid, nil)
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
					}()
					for srcNode.Server.OpenSessions() > 0 {
						time.Sleep(time.Millisecond)
					}
					closed.Store(true)
				})
			}
			if when == "after snapshot" {
				fn := func(r *http.Request) {
					if strings.HasPrefix(r.URL.String(), n3.URL+"/v1/replicate") {
						closeSession()
					}
				}
				afterShip.Store(&fn)
			} else {
				srcNode.Server.SetMigrationHook(func(phase string) {
					if phase == "catchup" {
						closeSession()
					}
				})
			}

			resp := testutil.PostJSON(t, src+"/v1/sessions/"+sid+"/migrate", server.MigrateRequest{Target: n3.URL})
			if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusGone {
				t.Fatalf("migrate of a session closed mid-catch-up: status %d, want 404 or 410", resp.StatusCode)
			}
			if !closed.Load() {
				t.Fatal("the close never fired; fixture is broken")
			}
			for _, n := range c.Nodes {
				st := testutil.GetJSON[server.ShardStatsResponse](t, n.URL+"/v1/shard/stats")
				for _, r := range st.Replicas {
					if r.SessionID == sid {
						t.Errorf("%s still follows closed session %s", n.URL, sid)
					}
				}
			}
		})
	}
}

// TestRebalanceMovesToReadmittedDeposedPrimary: a primary the gateway
// lost, that stayed up and was failed over away from, is readmitted, and
// the ring still designates it. One Rebalance pass moves the session
// back onto it: its stale copy is a prefix of the new owner's, so it
// yields to the new owner's catch-up, follows, and is promoted. The
// moved session serves every acked vertex and /v1/match stays
// byte-identical to the single-node oracle, crashed and reopened where
// each promote resumed the session.
func TestRebalanceMovesToReadmittedDeposedPrimary(t *testing.T) {
	var cut atomic.Pointer[string]
	c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
		cfg.Gateway.Transport = cutTransport(t, &cut)
	})
	oracleDir := t.TempDir()
	oracle := newDurableOracle(t, oracleDir)
	ingestContextPatients(t, c.URL, oracle.URL, 2)
	const pid, sid = "P00", "S-P00"
	createSession(t, c.URL, pid, sid)
	createSession(t, oracle.URL, pid, sid)
	batches := respBatches(t, 77, 45)
	third := len(batches) / 3
	for _, b := range batches[:third] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}
	old, _, _ := c.Gateway.SessionPlacement(sid)

	cut.Store(&old)
	c.Probe(1) // the gateway ejects the primary; it stays up
	oracle.Close()
	oracle = newDurableOracle(t, oracleDir)
	for _, b := range batches[third : 2*third] {
		ingestBatch(t, c.URL, sid, b) // the first batch fails the session over
		ingestBatch(t, oracle.URL, sid, b)
	}
	if p, _, _ := c.Gateway.SessionPlacement(sid); p == old {
		t.Fatalf("session did not fail over: primary still %q", p)
	}
	cut.Store(nil)
	c.Probe(2) // the deposed primary is readmitted

	rep := c.Gateway.Rebalance(context.Background())
	if len(rep.Failed) != 0 {
		t.Fatalf("rebalance onto the readmitted primary failed: %v", rep.Failed)
	}
	assertSessionMoved(t, rep, sid, old)
	if p, _, _ := c.Gateway.SessionPlacement(sid); p != old {
		t.Fatalf("placement = %q after the move, want %q", p, old)
	}
	oracle.Close()
	oracle = newDurableOracle(t, oracleDir)
	for _, b := range batches[2*third:] {
		ingestBatch(t, c.URL, sid, b)
		ingestBatch(t, oracle.URL, sid, b)
	}
	want := assertPLREqual(t, "moved back", c.URL, oracle.URL, sid)
	seq := plr.Sequence(want.Vertices[len(want.Vertices)-10:])
	assertMatchEquivalence(t, "moved back", c.URL, oracle.URL,
		server.MatchRequest{Seq: seq, PatientID: pid, SessionID: sid}, 2, 2)
}

// TestMigrationLostPromoteAnswerStaysFenced: the target's promote lands
// but its answer is cut short. The source cannot tell whether it landed,
// so it stays fenced and prepared (503 to ingest) instead of rolling
// back beside a target serving at epoch 2; the re-drive meets the
// target's epoch, the source yields, and the target holds every acked
// vertex. At R=1 nothing else would ever tell the source.
func TestMigrationLostPromoteAnswerStaysFenced(t *testing.T) {
	ft := testutil.NewFaultTransport().
		Only(func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/promote") }).
		Script(testutil.FaultPartialBody)
	c := testutil.StartCluster(t, 1, 1, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(_ int, o *server.Options) { o.ReplicateTransport = ft }
	})
	target := c.AddNode(nil)
	const pid, sid = "P00", "S-P00"
	createSession(t, c.URL, pid, sid)
	batches := respBatches(t, 41, 40)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		ingestBatch(t, c.URL, sid, b)
	}
	src := c.Nodes[0].URL
	acked := testutil.GetJSON[server.PLRResponse](t, src+"/v1/sessions/"+sid+"/plr")

	resp := testutil.PostJSON(t, src+"/v1/sessions/"+sid+"/migrate", server.MigrateRequest{Target: target.URL})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("migrate with the promote answer cut short: status %d, want 502", resp.StatusCode)
	}
	if st := testutil.GetJSON[server.ShardStatsResponse](t, target.URL+"/v1/shard/stats"); len(st.Sessions) != 1 || st.Sessions[0].Epoch != 2 {
		t.Fatalf("target inventory %+v, want the session served at epoch 2", st.Sessions)
	}
	resp = testutil.PostJSON(t, src+"/v1/sessions/"+sid+"/samples", batches[half])
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on the source after the lost answer: status %d, want 503 (still fenced)", resp.StatusCode)
	}

	resp = testutil.PostJSON(t, src+"/v1/sessions/"+sid+"/migrate", server.MigrateRequest{Target: target.URL})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || resp.Header.Get("Location") != target.URL {
		t.Fatalf("re-driven migrate: status %d, Location %q; want 410 naming %s",
			resp.StatusCode, resp.Header.Get("Location"), target.URL)
	}
	got := testutil.GetJSON[server.PLRResponse](t, target.URL+"/v1/sessions/"+sid+"/plr")
	if !reflect.DeepEqual(got.Vertices, acked.Vertices) {
		t.Fatalf("the target serves %d vertices, the source acked %d", len(got.Vertices), len(acked.Vertices))
	}
}
