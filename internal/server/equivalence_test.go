package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
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
	} else if ss, _, seen := srv.replay.Session(sid); seen {
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

// promoteRefuser carries a node's calls to other shards over the frame
// carrier and answers a promote to target 409 itself, as a migration
// target that refuses it would.
type promoteRefuser struct {
	inner  frame.Transport
	target atomic.Pointer[string]
}

func (p *promoteRefuser) RoundTrip(req *http.Request) (*http.Response, error) {
	if t := p.target.Load(); t != nil && strings.HasPrefix(req.URL.String(), *t) && strings.HasSuffix(req.URL.Path, "/promote") {
		return &http.Response{StatusCode: http.StatusConflict, Header: http.Header{}, Request: req,
			Body: io.NopCloser(strings.NewReader("promote refused\n"))}, nil
	}
	return p.inner.RoundTrip(req)
}

// decisions is what a node's interpreter holds of its records'
// decisions: every tombstone and prepare, and the anchor of every
// session it follows (its position in them is soft state, left out).
type decisions struct {
	Migrations []wal.MigrationState
	Followed   map[string]wal.SessionState
}

func decisionsOf(rp *wal.Replay) decisions {
	d := decisions{Migrations: rp.Migrations(), Followed: map[string]wal.SessionState{}}
	rp.Followed(func(ss wal.SessionState, _ *wal.Follow) { d.Followed[ss.SessionID] = ss })
	return d
}

// TestLiveDecisionsEqualRecovery: a durable node keeps one table of what
// its records decided, and it is the table a recovery of its data dir
// builds. The node runs through a migration whose target refuses the
// promote (aborted), a migration commit, a promote back that sheds the
// tombstone, a followed session its owner closes, and a crash between a
// migration's prepare and its promote, re-driven to its commit. After
// each step the live node's interpreter and one recovered from a copy of
// its data dir hold the same tombstones, prepares and followed anchors,
// and those are the step's.
func TestLiveDecisionsEqualRecovery(t *testing.T) {
	refuser := &promoteRefuser{}
	t.Cleanup(refuser.inner.Close)
	n := newRestartable(t, refuser)
	_, t1 := newAdvertised(t, Options{})
	t2Srv, t2 := newAdvertised(t, Options{})
	agree := func(step string, want []wal.MigrationState, followed ...string) {
		t.Helper()
		srv := n.srv.Load()
		srv.mu.Lock()
		live := decisionsOf(srv.replay)
		srv.mu.Unlock()
		log, res, err := wal.Open(wal.Options{Dir: copyDir(t, n.dir)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		if recovered := decisionsOf(res.Replay); !reflect.DeepEqual(live, recovered) {
			t.Errorf("%s: the live node decided\n %+v\nits recovery\n %+v", step, live, recovered)
		}
		if !reflect.DeepEqual(live.Migrations, append([]wal.MigrationState{}, want...)) {
			t.Errorf("%s: migrations %+v, want %+v", step, live.Migrations, want)
		}
		if len(live.Followed) != len(followed) {
			t.Errorf("%s: follows %+v, want %v", step, live.Followed, followed)
		}
		for _, sid := range followed {
			if ss, ok := live.Followed[sid]; !ok || ss.Samples == 0 {
				t.Errorf("%s: follows %s with anchor %+v, want one", step, sid, ss)
			}
		}
	}
	samples := respSamples(t, 67, 120)
	quarter := len(samples) / 4
	if resp := postJSON(t, n.ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P1", SessionID: "S1"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	ingestBatches(t, n.ts.URL, "S1", samples[:quarter], 64)
	agree("created", nil)

	refuser.target.Store(&t1)
	if code, _ := migrateTo(t, n.ts.URL, "S1", t1); code != http.StatusBadGateway {
		t.Fatalf("migrate to a target refusing the promote: status %d, want 502", code)
	}
	refuser.target.Store(nil)
	agree("aborted", nil)
	ingestBatches(t, n.ts.URL, "S1", samples[quarter:2*quarter], 64) // not fenced

	if code, _ := migrateTo(t, n.ts.URL, "S1", t2); code != http.StatusOK {
		t.Fatalf("migrate to %s: status %d", t2, code)
	}
	agree("committed", []wal.MigrationState{{SessionID: "S1", PatientID: "P1", Target: t2, Epoch: 2, Phase: wal.MigrateCommit}})

	ingestBatches(t, t2, "S1", samples[2*quarter:3*quarter], 64)
	paused, release := make(chan struct{}), make(chan struct{})
	t2Srv.SetMigrationHook(func(phase string) {
		if phase == "cutover" {
			close(paused)
			<-release
		}
	})
	back := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(MigrateRequest{Target: n.ts.URL})
		resp, err := http.Post(t2+"/v1/sessions/S1/migrate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			back <- 0
			return
		}
		resp.Body.Close()
		back <- resp.StatusCode
	}()
	<-paused
	agree("following its new owner", []wal.MigrationState{{SessionID: "S1", PatientID: "P1", Target: t2, Epoch: 2, Phase: wal.MigrateCommit}}, "S1")
	close(release)
	if code := <-back; code != http.StatusOK {
		t.Fatalf("migrate back: status %d", code)
	}
	t2Srv.SetMigrationHook(nil)
	agree("promoted back", nil)

	other := respSamples(t, 71, 40)
	if resp := postJSON(t, t1+"/v1/sessions", CreateSessionRequest{PatientID: "P2", SessionID: "S2", Replicate: []string{n.ts.URL}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create S2 status %d", resp.StatusCode)
	}
	ingestBatches(t, t1, "S2", other, 64)
	agree("following S2", nil, "S2")
	req, _ := http.NewRequest(http.MethodDelete, t1+"/v1/sessions/S2", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close S2 on its owner: %v %+v", err, resp)
	}
	agree("S2 closed by its owner", nil)

	// The node crashes between the prepare and the promote: the hook
	// ends the migrate there, and the node restarts from its data dir.
	ingestBatches(t, n.ts.URL, "S1", samples[3*quarter:], 64)
	n.srv.Load().SetMigrationHook(func(phase string) {
		if phase == "cutover" {
			panic(http.ErrAbortHandler)
		}
	})
	body, _ := json.Marshal(MigrateRequest{Target: t1})
	if resp, err := http.Post(n.ts.URL+"/v1/sessions/S1/migrate", "application/json", bytes.NewReader(body)); err == nil {
		resp.Body.Close()
		t.Fatalf("the migrate crashed at its cutover answered %d", resp.StatusCode)
	}
	n.restart(true)
	prepared := []wal.MigrationState{{SessionID: "S1", PatientID: "P1", Target: t1, Phase: wal.MigratePrepare}}
	agree("crashed between prepare and promote", prepared)
	resp := postJSON(t, n.ts.URL+"/v1/sessions/S1/samples", samples[len(samples)-1:])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest on the recovered, prepared node: status %d, want 503", resp.StatusCode)
	}
	if code, _ := migrateTo(t, n.ts.URL, "S1", t1); code != http.StatusOK {
		t.Fatalf("re-driven migrate to %s: status %d", t1, code)
	}
	agree("re-driven to its commit", []wal.MigrationState{{SessionID: "S1", PatientID: "P1", Target: t1, Epoch: 4, Phase: wal.MigrateCommit}})
}
