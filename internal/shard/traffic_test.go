package shard_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"stsmatch/internal/frame"
	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/testutil"
	"stsmatch/internal/wal"
)

// trafficRecorder carries a node's calls to other shards over the frame
// carrier and counts the record types of every /v1/replicate body.
type trafficRecorder struct {
	t     *testing.T
	inner *frame.Transport

	mu      sync.Mutex
	shipped map[wal.Type]int
}

func (r *trafficRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/replicate" {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		b, err := wal.DecodeBatch(body)
		if err != nil {
			r.t.Errorf("a shipped batch does not decode: %v", err)
		}
		r.mu.Lock()
		for _, rec := range b.Records {
			r.shipped[rec.Type]++
		}
		r.mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return r.inner.RoundTrip(req)
}

// journaledTypes counts the record types in every log segment of dir.
// A segment is a header (magic, version, first LSN) and then frames of
// u32 payload length, u32 CRC and the payload, whose first byte is the
// record type (DESIGN §8).
func journaledTypes(t *testing.T, dir string, into map[wal.Type]int) {
	t.Helper()
	const segHdrLen = 4 + 2 + 8
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v %v", dir, segs, err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for b := raw[segHdrLen:]; len(b) > 0; {
			n := int(binary.LittleEndian.Uint32(b))
			if n == 0 || 8+n > len(b) {
				t.Fatalf("%s: torn frame at %d bytes from its end", seg, len(b))
			}
			into[wal.Type(b[8])]++
			b = b[8+n:]
		}
	}
}

// TestRecordTraffic pins which record types cross the wire and which
// reach a log, so every reader handles exactly what some writer sends.
// Durable nodes at R=3 go through create, ingest, subscribe, ack, a
// migration onto a joining node, a failover promote, a subscription
// delete and a session close. Every /v1/replicate body is decoded, and
// every data dir's segments are read before anything closes the node
// (a graceful Close snapshots and compacts them away).
//
// A link opens with a catch-up made of the session's own records
// (stream-open, patient-upsert, vertex-append, anchor, sub-upserts), and
// a follower journals what it applies as it came, so every type a link
// ships is also a journaled type. Only owners journal promotes and
// migration records, and no link ships one.
func TestRecordTraffic(t *testing.T) {
	rec := &trafficRecorder{t: t, inner: &frame.Transport{}, shipped: map[wal.Type]int{}}
	t.Cleanup(rec.inner.Close)
	var dirs []string
	durable := func(o *server.Options) {
		o.DataDir = t.TempDir()
		o.ReplicateTransport = rec
		dirs = append(dirs, o.DataDir)
	}
	c := testutil.StartCluster(t, 3, 3, func(cfg *testutil.ClusterConfig) {
		cfg.ConfigureServer = func(_ int, o *server.Options) { durable(o) }
	})
	joining := c.AddNode(durable)
	pid := movedPatient(t, []string{c.Nodes[0].URL, c.Nodes[1].URL, c.Nodes[2].URL}, joining.URL)
	sid := "S-" + pid

	createSession(t, c.URL, pid, sid)
	batches := respBatches(t, 77, 240)
	q := len(batches) / 4
	for _, b := range batches[:q] {
		ingestBatch(t, c.URL, sid, b)
	}
	pr := testutil.GetJSON[server.PLRResponse](t, c.URL+"/v1/sessions/"+sid+"/plr")
	resp := testutil.PostJSON(t, c.URL+"/v1/subscriptions", server.SubscriptionRequest{
		ID: "traffic", Seq: plr.Sequence(pr.Vertices[len(pr.Vertices)-8:]), SessionID: sid,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	for _, b := range batches[q : 2*q] {
		ingestBatch(t, c.URL, sid, b)
	}
	events := testutil.GetJSON[server.SubEventsPoll](t, c.URL+"/v1/subscriptions/traffic/events?mode=poll")
	if len(events.Events) == 0 {
		t.Fatal("the subscription emitted nothing to acknowledge; fixture broken")
	}
	testutil.GetJSON[server.SubEventsPoll](t, fmt.Sprintf("%s/v1/subscriptions/traffic/events?mode=poll&after=%d", c.URL, events.Next))

	if err := c.Gateway.AddBackend(joining.URL); err != nil {
		t.Fatal(err)
	}
	if rep := c.Gateway.Rebalance(context.Background()); len(rep.Moved) != 1 || len(rep.Failed) != 0 {
		t.Fatalf("rebalance moved %v, failed %v; want the one session moved", rep.Moved, rep.Failed)
	}
	for _, b := range batches[2*q : 3*q] {
		ingestBatch(t, c.URL, sid, b)
	}
	c.Kill(joining.URL)
	c.Probe(1)
	for _, b := range batches[3*q:] {
		ingestBatch(t, c.URL, sid, b) // the first batch fails the session over
	}
	if primary, _, _ := c.Gateway.SessionPlacement(sid); primary == joining.URL {
		t.Fatalf("session did not fail over: primary still %q", primary)
	}

	for _, req := range []string{"/v1/subscriptions/traffic", "/v1/sessions/" + sid} {
		del, err := http.NewRequest(http.MethodDelete, c.URL+req, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", req, resp.StatusCode)
		}
	}

	journaled := map[wal.Type]int{}
	for _, dir := range dirs {
		journaledTypes(t, dir, journaled)
	}
	rec.mu.Lock()
	shipped := maps.Clone(rec.shipped)
	rec.mu.Unlock()
	for _, set := range []struct {
		name   string
		counts map[wal.Type]int
		want   []wal.Type // in type order
	}{
		{"shipped", shipped, []wal.Type{
			wal.TypePatientUpsert, wal.TypeStreamOpen, wal.TypeVertexAppend, wal.TypeSessionClose, wal.TypeSessionAnchor,
			wal.TypeSubUpsert, wal.TypeSubDelete, wal.TypeSubAck,
		}},
		{"journaled", journaled, []wal.Type{
			wal.TypePatientUpsert, wal.TypeStreamOpen, wal.TypeVertexAppend, wal.TypeSessionClose, wal.TypeSessionAnchor,
			wal.TypeReplicaPromote, wal.TypeSubUpsert, wal.TypeSubDelete, wal.TypeSubAck, wal.TypeSessionMigrate,
		}},
	} {
		var got []wal.Type
		for typ := range set.counts {
			got = append(got, typ)
		}
		if slices.Sort(got); !slices.Equal(got, set.want) {
			t.Errorf("%s record types %v, want %v (counts %v)", set.name, got, set.want, set.counts)
		}
	}
	for typ := range shipped {
		if journaled[typ] == 0 {
			t.Errorf("links ship %s records, which no node journals", typ)
		}
	}
}
