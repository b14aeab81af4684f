package shard_test

import (
	"fmt"
	"slices"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/testutil"
)

// TestClusterPlacementIsFixed: the ring hashes the nodes' names, which
// are the same in every cluster, so two clusters started one after the
// other place twelve patients' sessions on the same primaries and
// owners. Each runs in a subtest of its own: a name belongs to one live
// cluster.
func TestClusterPlacementIsFixed(t *testing.T) {
	var placed [2][]string
	for i := range placed {
		t.Run(fmt.Sprintf("cluster-%d", i), func(t *testing.T) {
			c := testutil.StartCluster(t, 3, 2)
			for p := 0; p < 12; p++ {
				pid := fmt.Sprintf("P%02d", p)
				createSession(t, c.URL, pid, "S-"+pid)
				primary, owners, ok := c.Gateway.SessionPlacement("S-" + pid)
				if !ok {
					t.Fatalf("S-%s has no placement", pid)
				}
				placed[i] = append(placed[i], fmt.Sprintf("%s %s %v", pid, primary, owners))
			}
		})
	}
	if !slices.Equal(placed[0], placed[1]) {
		t.Errorf("placement differs between two clusters:\n%q\n%q", placed[0], placed[1])
	}
}

// TestGatewayExchangeCounts pins the exchanges the carrier delivers for
// one gateway operation at n = 3, R = 2, the client's hop to the gateway
// included: a match is that hop and a leg to each shard, an ingest batch
// that hop, the primary's and its follower's shipment, and a predict
// that hop and the primary's. A count that moves, either way, is a
// change to the gateway's traffic.
func TestGatewayExchangeCounts(t *testing.T) {
	c := testutil.StartCluster(t, 3, 2)
	const sid = "S-P00"
	createSession(t, c.URL, "P00", sid)
	batches := respBatches(t, 300, 45)
	for _, b := range batches[:len(batches)-1] {
		ingestBatch(t, c.URL, sid, b)
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	seq := plr.Sequence(pr.Vertices[len(pr.Vertices)-10:])
	for _, tc := range []struct {
		op   string
		want int
		do   func()
	}{
		{"threshold match", 4, func() { matchBody(t, c.URL, server.MatchRequest{Seq: seq, PatientID: "P00", SessionID: sid}) }},
		{"top-k match", 4, func() { matchBody(t, c.URL, server.MatchRequest{Seq: seq, PatientID: "P00", SessionID: sid, K: 10}) }},
		{"ingest batch", 3, func() { ingestBatch(t, c.URL, sid, batches[len(batches)-1]) }},
		{"predict", 2, func() {
			testutil.GetJSON[server.PredictionResponse](t, c.URL+"/v1/sessions/"+sid+"/predict?delta=200ms")
		}},
	} {
		before := c.Exchanges()
		tc.do()
		if got := c.Exchanges() - before; got != tc.want {
			t.Errorf("%s: %d exchanges, want %d", tc.op, got, tc.want)
		}
	}
}
