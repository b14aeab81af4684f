package server_test

import (
	"net/http"
	"strings"
	"testing"

	"stsmatch/internal/server"
	"stsmatch/internal/signal"
	"stsmatch/internal/testutil"
)

// TestIngestFreshnessHeaders: the name dates from when create and
// ingest acks piggybacked the patient's holdings (X-Patient-Streams,
// X-Patient-Vertices) and the replication outcome (X-Replicated) for the
// gateway's follower-read planner. No ack carries them now, from a shard
// or through the gateway, replicated or not; what an ack says about its
// followers is its body's replicaErrors, which still names a follower
// whose shipments a fault transport severs.
func TestIngestFreshnessHeaders(t *testing.T) {
	ft := testutil.NewFaultTransport().Only(func(r *http.Request) bool { return r.URL.Path == "/v1/replicate" })
	c := testutil.StartCluster(t, 2, 2, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(i int, o *server.Options) { o.ReplicateTransport = ft }
	})
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]server.SampleIn
	for _, s := range gen.Generate(12) {
		if len(batches) == 0 || len(batches[len(batches)-1]) == 40 {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], server.SampleIn{T: s.T, Pos: s.Pos})
	}
	ack := func(label, url string, body any, wantStatus int) server.SamplesResponse {
		t.Helper()
		resp := testutil.PostJSON(t, url, body)
		for _, h := range []string{"X-Patient-Streams", "X-Patient-Vertices", "X-Replicated"} {
			if v := resp.Header.Get(h); v != "" {
				t.Errorf("%s: ack carries %s: %q", label, h, v)
			}
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", label, resp.StatusCode, wantStatus)
		}
		return testutil.Decode[server.SamplesResponse](t, resp)
	}

	// A replicated session through the gateway, and an unreplicated one
	// straight on a shard.
	ack("gateway create", c.URL+"/v1/sessions", server.CreateSessionRequest{PatientID: "P01", SessionID: "S01"}, http.StatusCreated)
	primary, owners, ok := c.Gateway.SessionPlacement("S01")
	if !ok || len(owners) != 2 {
		t.Fatalf("placement = %q %v", primary, owners)
	}
	follower := owners[0]
	if follower == primary {
		follower = owners[1]
	}
	ack("shard create", primary+"/v1/sessions", server.CreateSessionRequest{PatientID: "P02", SessionID: "S02"}, http.StatusCreated)
	for i, b := range batches[:len(batches)/2] {
		if sr := ack("gateway ingest", c.URL+"/v1/sessions/S01/samples", b, http.StatusOK); len(sr.ReplicaErrors) != 0 {
			t.Fatalf("batch %d: replica errors on a clean link: %v", i, sr.ReplicaErrors)
		}
		ack("shard ingest", primary+"/v1/sessions/S02/samples", b, http.StatusOK)
	}

	// Sever the follower: every ack still answers 200, and its body says
	// which follower missed the write.
	ft.SeedRandom(1, 1.0, testutil.FaultDrop)
	for _, b := range batches[len(batches)/2:] {
		sr := ack("severed gateway ingest", c.URL+"/v1/sessions/S01/samples", b, http.StatusOK)
		if len(sr.ReplicaErrors) != 1 || !strings.HasPrefix(sr.ReplicaErrors[0], follower) {
			t.Fatalf("severed ingest replicaErrors = %v, want one naming %s", sr.ReplicaErrors, follower)
		}
	}
}
