package server

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsmatch/internal/frame"
	"stsmatch/internal/plr"
)

// gateRow is one write door on session S01, driven over HTTP on node a;
// c is a fresh node for a migration to go to, and pattern the tail of
// the stream a holds. It returns the answer's status and body.
type gateRow struct {
	name string
	do   func(t *testing.T, a, c string, pattern plr.Sequence) (int, string)
}

// gatePattern is the pattern the table's subscriptions register: the
// tail of what a holds of S01.
func gatePattern(t *testing.T, a string) plr.Sequence {
	t.Helper()
	held, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr")
	return plr.Sequence(held.Vertices[len(held.Vertices)-6:])
}

// gateRows are the writes on S01; "pre" is a subscription of S01 that
// was registered before the node was superseded or fenced.
func gateRows(samples []SampleIn) []gateRow {
	answer := func(t *testing.T, resp *http.Response) (int, string) {
		t.Helper()
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	send := func(t *testing.T, method, url string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(method, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return answer(t, resp)
	}
	subscribe := func(patientID, sessionID string) func(*testing.T, string, string, plr.Sequence) (int, string) {
		return func(t *testing.T, a, c string, pattern plr.Sequence) (int, string) {
			return answer(t, postJSON(t, a+"/v1/subscriptions", SubscriptionRequest{
				ID: "new", Seq: pattern, PatientID: patientID, SessionID: sessionID, Threshold: 1e6}))
		}
	}
	return []gateRow{
		{"ingest", func(t *testing.T, a, c string, _ plr.Sequence) (int, string) {
			return answer(t, postJSON(t, a+"/v1/sessions/S01/samples", samples))
		}},
		{"close", func(t *testing.T, a, c string, _ plr.Sequence) (int, string) {
			return send(t, http.MethodDelete, a+"/v1/sessions/S01")
		}},
		{"migrate", func(t *testing.T, a, c string, _ plr.Sequence) (int, string) {
			return answer(t, postJSON(t, a+"/v1/sessions/S01/migrate", MigrateRequest{Target: c}))
		}},
		{"session-scoped subscription", subscribe("", "S01")},
		{"patient-scoped subscription", subscribe("P01", "")},
		{"delete", func(t *testing.T, a, c string, _ plr.Sequence) (int, string) {
			return send(t, http.MethodDelete, a+"/v1/subscriptions/pre")
		}},
		{"ack", func(t *testing.T, a, c string, _ plr.Sequence) (int, string) {
			return send(t, http.MethodGet, a+"/v1/subscriptions/pre/events?mode=poll&after=1")
		}},
	}
}

// registerPre registers subscription "pre" on a over S01's tail at a
// threshold every window of its state string meets, so the writes after
// it emit events an ack can acknowledge.
func registerPre(t *testing.T, a string) {
	t.Helper()
	resp := postJSON(t, a+"/v1/subscriptions", SubscriptionRequest{ID: "pre", Seq: gatePattern(t, a), SessionID: "S01", Threshold: 1e6})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("registering pre: status %d", resp.StatusCode)
	}
}

// subscriptionList is a node's /v1/subscriptions answer, as bytes; "pre"
// must have emitted an event, for the ack row to acknowledge.
func subscriptionList(t *testing.T, a string) []byte {
	t.Helper()
	resp, err := http.Get(a + "/v1/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var list struct {
		Subscriptions []struct {
			ID      string `json:"id"`
			NextSeq uint64 `json:"nextSeq"`
		} `json:"subscriptions"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Subscriptions) == 0 || list.Subscriptions[0].ID != "pre" || list.Subscriptions[0].NextSeq < 2 {
		t.Fatalf("subscriptions on %s: %s (%v), want pre with an event to acknowledge", a, body, err)
	}
	return body
}

// dirBytes is the size of every file under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			info, ierr := d.Info()
			if ierr != nil {
				return ierr
			}
			n += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWriteGate: every write door on a session goes through one gate.
// Each row runs on a fixture of its own. On a superseded node
// (supersededWithoutPrefix's A) every write in the session's scope
// answers 409 naming the owner's epoch, and nothing moves: the PLR, the
// subscription list and the journal stay as they were (the node fsyncs
// every append, so a journaled record would grow its data dir), the
// fresh migration target holds no live S01, and the session lists no
// link. On a node fenced by a migration held at its cutover, the ingest
// is retryable (503), the close belongs to the new home (409), and a
// migration re-drive and the subscription operations are taken.
func TestWriteGate(t *testing.T) {
	samples := respSamples(t, 79, 4)
	t.Run("superseded", func(t *testing.T) {
		for _, row := range gateRows(samples) {
			t.Run(row.name, func(t *testing.T) {
				dir := t.TempDir()
				a, acked := supersededWithoutPrefix(t, Options{DataDir: dir}, func(a string) { registerPre(t, a) })
				_, c := newAdvertised(t, Options{})
				subs, journal := subscriptionList(t, a), dirBytes(t, dir)
				if code, body := row.do(t, a, c, gatePattern(t, a)); code != http.StatusConflict || !strings.Contains(body, "epoch 2") {
					t.Errorf("status %d %s, want 409 naming epoch 2", code, strings.TrimSpace(body))
				}
				if kept, _ := getJSON[PLRResponse](t, a+"/v1/sessions/S01/plr"); !reflect.DeepEqual(kept, acked) {
					t.Errorf("A serves %d vertices, it acked %d", len(kept.Vertices), len(acked.Vertices))
				}
				if after := subscriptionList(t, a); string(after) != string(subs) {
					t.Errorf("A's subscriptions moved:\n%s\nwere\n%s", after, subs)
				}
				if n := dirBytes(t, dir); n != journal {
					t.Errorf("A's data dir went %d → %d bytes: the refused write was journaled", journal, n)
				}
				if st := shardStats(t, c); len(st.Sessions) != 0 {
					t.Errorf("the migration target serves %+v", st.Sessions)
				}
				if st := shardStats(t, a); len(st.Sessions) != 1 || st.Sessions[0].SessionID != "S01" || len(st.Sessions[0].Links) != 0 {
					t.Errorf("A's inventory: %+v, want S01 with no links", st.Sessions)
				}
			})
		}
	})
	// A supersede that lands after the gate took a write, while its
	// flush is in flight, is met by the door's second ask: the write's
	// shipment to the old follower B went through before B's promote, and
	// its shipment to F is held until the supersede has dropped every
	// link, so the flush itself meets no refusal. The registration whose
	// flush met B's 412 and superseded A is refused too. Close retires the
	// session and a migrate's commit asks the gate itself, so neither
	// has a second ask.
	t.Run("superseded while flushing", func(t *testing.T) {
		stream := respSamples(t, 89, 60)
		cut := len(stream) - 40
		for _, row := range gateRows(stream[cut:]) {
			if row.name == "close" || row.name == "migrate" {
				continue
			}
			t.Run(row.name, func(t *testing.T) {
				a, b, hold := flushingFollowers(t, stream[:cut])
				pattern := gatePattern(t, a)
				answered := make(chan [2]any, 1)
				go func() {
					code, body := row.do(t, a, "", pattern)
					answered <- [2]any{code, body}
				}()
				<-hold.held
				waitFor(t, "the write's shipment to B", func() bool {
					for _, l := range shardStats(t, a).Sessions[0].Links {
						if l.Target == b && l.AckedSeq < l.ShippedSeq {
							return false
						}
					}
					return true
				})
				if resp := postJSON(t, b+"/v1/sessions/S01/promote", PromoteRequest{}); resp.StatusCode != http.StatusOK {
					t.Fatalf("promote status %d", resp.StatusCode)
				}
				triggered := make(chan *http.Response, 1)
				go func() {
					triggered <- postJSON(t, a+"/v1/subscriptions", SubscriptionRequest{ID: "trigger", Seq: pattern, SessionID: "S01", Threshold: 1e6})
				}()
				waitFor(t, "A superseded with no link left", func() bool {
					st := shardStats(t, a)
					return len(st.Sessions) == 1 && len(st.Sessions[0].Links) == 0
				})
				close(hold.release)
				if got := <-answered; got[0] != http.StatusConflict || !strings.Contains(got[1].(string), "epoch 2") {
					t.Errorf("status %v %s, want 409 naming epoch 2", got[0], strings.TrimSpace(got[1].(string)))
				}
				resp := <-triggered
				if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "epoch 2") {
					t.Errorf("the registration that superseded A: status %d %s, want 409 naming epoch 2", resp.StatusCode, strings.TrimSpace(string(body)))
				}
				resp.Body.Close()
			})
		}
	})
	t.Run("fenced", func(t *testing.T) {
		want := map[string]int{
			"ingest":                      http.StatusServiceUnavailable,
			"close":                       http.StatusConflict,
			"migrate":                     http.StatusOK,
			"session-scoped subscription": http.StatusCreated,
			"patient-scoped subscription": http.StatusCreated,
			"delete":                      http.StatusOK,
			"ack":                         http.StatusOK,
		}
		for _, row := range gateRows(samples) {
			t.Run(row.name, func(t *testing.T) {
				a, release := fencedAtCutover(t)
				defer release()
				_, c := newAdvertised(t, Options{})
				if code, body := row.do(t, a, c, gatePattern(t, a)); code != want[row.name] {
					t.Errorf("status %d %s, want %d", code, strings.TrimSpace(body), want[row.name])
				}
			})
		}
	})
}

// fencedAtCutover opens S01 on a node with subscription "pre" that has
// emitted events, and holds a migration of it to another node at its
// "cutover" phase: the session is fenced. release lets that migration go
// on and waits for its answer; later cutovers are not held.
func fencedAtCutover(t *testing.T) (a string, release func()) {
	t.Helper()
	src, a := newAdvertised(t, Options{})
	_, target := newAdvertised(t, Options{})
	if resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	samples := respSamples(t, 83, 60)
	half := len(samples) / 2
	ingestBatches(t, a, "S01", samples[:half], 256)
	registerPre(t, a)
	ingestBatches(t, a, "S01", samples[half:], 256)
	subscriptionList(t, a)

	paused, held := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	src.SetMigrationHook(func(phase string) {
		if phase == "cutover" && first.CompareAndSwap(false, true) {
			close(paused)
			<-held
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(MigrateRequest{Target: target})
		if resp, err := http.Post(a+"/v1/sessions/S01/migrate", "application/json", bytes.NewReader(body)); err == nil {
			resp.Body.Close()
		}
	}()
	<-paused
	var unhold sync.Once
	return a, func() {
		unhold.Do(func() { close(held) })
		<-done
	}
}

// shipHold holds the first replication shipment to target after armed
// is set until release is closed, closing held when it does.
type shipHold struct {
	inner         frame.Transport
	target        string
	armed         atomic.Bool
	held, release chan struct{}
}

func (h *shipHold) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/replicate" && strings.HasPrefix(req.URL.String(), h.target) && h.armed.CompareAndSwap(true, false) {
		close(h.held)
		<-h.release
	}
	return h.inner.RoundTrip(req)
}

// flushingFollowers opens S01 on a node a that ships to two followers:
// b, which advertises no URL (its 412 names no owner, so a is
// superseded, not handed over, once b is promoted), and f. S01 holds
// stream and subscription "pre" with events to acknowledge; the
// returned hold is armed on a's next shipment to f.
func flushingFollowers(t *testing.T, stream []SampleIn) (a, b string, hold *shipHold) {
	t.Helper()
	_, f := newAdvertised(t, Options{})
	_, bs := newReplServer(t, Options{})
	hold = &shipHold{target: f, held: make(chan struct{}), release: make(chan struct{})}
	_, a = newAdvertised(t, Options{ReplicateTransport: hold})
	t.Cleanup(func() {
		select {
		case <-hold.release:
		default:
			close(hold.release)
		}
	})
	if resp := postJSON(t, a+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01", Replicate: []string{bs.URL, f}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	half := len(stream) / 2
	ingestBatches(t, a, "S01", stream[:half], 256)
	registerPre(t, a)
	ingestBatches(t, a, "S01", stream[half:], 256)
	subscriptionList(t, a)
	hold.armed.Store(true)
	return a, bs.URL, hold
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
