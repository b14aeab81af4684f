package server

import (
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"stsmatch/internal/binfmt"
	"stsmatch/internal/frame"
	"stsmatch/internal/plr"
	"stsmatch/internal/wal"
)

// shipDropper carries a node's calls to other shards over the frame
// carrier and fails the next drops shipments to target before they are
// delivered.
type shipDropper struct {
	inner  frame.Transport
	target string
	drops  atomic.Int32
}

func (d *shipDropper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/replicate" && strings.HasPrefix(req.URL.String(), d.target) && d.drops.Add(-1) >= 0 {
		return nil, errors.New("shipment dropped")
	}
	return d.inner.RoundTrip(req)
}

// nodeState is what one node holds of a session: the stream's columns
// as bytes, the in-scope subscription's state with emission times
// cleared, and the anchor.
type nodeState struct {
	vertices int
	columns  []byte
	sub      wal.SubState
	anchor   wal.SessionState
}

// stateOf reads session sid of patient pid and subscription subID on
// srv. The anchor is the live session's on its owner, the interpreter's
// on a follower.
func stateOf(t *testing.T, srv *Server, pid, sid, subID string) nodeState {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	var ns nodeState
	p := srv.db.Patient(pid)
	if p == nil || p.StreamBySession(sid) == nil {
		t.Fatalf("no stream %s/%s", pid, sid)
	}
	view := p.StreamBySession(sid).ScanView("")
	ns.vertices = view.Len()
	for i, tm := range view.T {
		ns.columns = binary.LittleEndian.AppendUint64(ns.columns, math.Float64bits(tm))
		for _, x := range view.Pos[i*view.Dims : (i+1)*view.Dims] {
			ns.columns = binary.LittleEndian.AppendUint64(ns.columns, math.Float64bits(x))
		}
		ns.columns = append(ns.columns, view.States[i])
	}
	sub, ok := srv.subs.State(subID)
	if !ok {
		t.Fatalf("no subscription %q", subID)
	}
	for i := range sub.Events {
		sub.Events[i].At = 0
	}
	ns.sub = sub
	if sess, live := srv.sessions[sid]; live {
		ns.anchor = wal.SessionState{Samples: uint64(sess.samples), LastT: sess.lastT, LastPos: sess.lastPos}
	} else if ss, seen := srv.replay.Session(sid); seen {
		ns.anchor = wal.SessionState{Samples: ss.Samples, LastT: ss.LastT, LastPos: ss.LastPos}
	}
	return ns
}

// journaledVertices sums the vertices of every vertex-append record in
// dir's log segments: a segment is a 14-byte header and then frames of
// u32 payload length, u32 CRC and the payload (DESIGN §8).
func journaledVertices(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v %v", dir, segs, err)
	}
	n := 0
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for b := raw[14:]; len(b) > 0; {
			size := int(binary.LittleEndian.Uint32(b))
			d := binfmt.NewDecoder(b[8 : 8+size])
			if wal.Type(d.U8()) == wal.TypeVertexAppend {
				d.Uvarint()
				d.Str()
				d.Str()
				n += len(d.Sequence())
			}
			if err := d.Err(); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			b = b[8+size:]
		}
	}
	return n
}

// copyDir copies the files of a data dir into a fresh one, so a node
// can be recovered from it while the original keeps serving.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFollowerStateEqualsRecovery: one history gives the same state on
// every node. A durable primary ships to two durable followers while
// samples arrive in batches of 1, 7 and 256 and a subscription is
// registered and acked; one shipment to the second follower is dropped
// and the primary then crashes, so after its restart both links catch
// up mid-history, the second over a stream it holds only part of. The
// primary, each follower, and each node recovered from its data dir
// hold the same stream columns byte for byte and the same subscription
// state (emission times aside); each follower holds the primary's
// anchor; and a follower's journal holds each vertex once.
func TestFollowerStateEqualsRecovery(t *testing.T) {
	samples := respSamples(t, 29, 120)
	f1dir, f2dir := t.TempDir(), t.TempDir()
	f1, f1ts := newDurableServer(t, f1dir)
	f2, f2ts := newDurableServer(t, f2dir)
	drop := &shipDropper{target: f2ts.URL}
	t.Cleanup(drop.inner.Close)
	primary := newRestartable(t, drop)

	const pid, sid, subID = "P01", "S01", "eq"
	if resp := postJSON(t, primary.ts.URL+"/v1/sessions", CreateSessionRequest{
		PatientID: pid, SessionID: sid, Replicate: []string{f1ts.URL, f2ts.URL},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	next := 0
	ingest := func(n, batch int) {
		t.Helper()
		ingestBatches(t, primary.ts.URL, sid, samples[next:next+n], batch)
		next += n
	}
	ingest(40, 1)
	ingest(140, 7)
	ingest(300, 256)
	pr, _ := getJSON[PLRResponse](t, primary.ts.URL+"/v1/sessions/"+sid+"/plr")
	if resp := postJSON(t, primary.ts.URL+"/v1/subscriptions", SubscriptionRequest{
		ID: subID, Seq: plr.Sequence(pr.Vertices[len(pr.Vertices)-6:]), SessionID: sid,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	ingest(280, 7)
	ingest(200, 256)
	events := pollEvents(t, primary.ts.URL, subID, 0)
	if len(events.Events) < 2 {
		t.Fatalf("fixture: %d events to acknowledge", len(events.Events))
	}
	pollEvents(t, primary.ts.URL, subID, events.Events[0].Seq)

	// The second follower misses one ingest's records, and the crash
	// loses the backlog that would have re-shipped them.
	drop.drops.Store(1)
	resp := postJSON(t, primary.ts.URL+"/v1/sessions/"+sid+"/samples", samples[next:next+70])
	if sr := decode[SamplesResponse](t, resp); resp.StatusCode != http.StatusOK || len(sr.ReplicaErrors) != 1 {
		t.Fatalf("dropped shipment: status %d, replica errors %v", resp.StatusCode, sr.ReplicaErrors)
	}
	next += 70
	primary.restart(true)
	ingest(30, 1)
	ingest(70, 7)
	ingest(len(samples)-next, 256)

	want := stateOf(t, primary.srv.Load(), pid, sid, subID)
	if len(want.sub.Events) == 0 || want.sub.Delivered == 0 {
		t.Fatalf("fixture: subscription state %+v has nothing acked or buffered", want.sub)
	}
	nodes := map[string]*Server{"follower 1": f1, "follower 2": f2}
	for name, srv := range nodes {
		got := stateOf(t, srv, pid, sid, subID)
		if !reflect.DeepEqual(got.anchor, want.anchor) {
			t.Errorf("%s anchor %+v, primary's %+v", name, got.anchor, want.anchor)
		}
		got.anchor = want.anchor
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from the primary:\n got %+v\nwant %+v", name, got.sub, want.sub)
		}
	}
	for name, dir := range map[string]string{"follower 1": f1dir, "follower 2": f2dir} {
		if n := journaledVertices(t, dir); n != want.vertices {
			t.Errorf("%s journaled %d vertices, holds %d", name, n, want.vertices)
		}
	}

	for name, dir := range map[string]string{"primary": primary.dir, "follower 1": f1dir, "follower 2": f2dir} {
		srv, _ := newDurableServer(t, copyDir(t, dir))
		got := stateOf(t, srv, pid, sid, subID)
		if name != "primary" {
			got.anchor = want.anchor // a recovered follower follows nothing until a link catches it up
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s recovered from its data dir differs from the primary:\n got %+v\nwant %+v", name, got.sub, want.sub)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
