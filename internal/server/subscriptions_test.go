package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/subscribe"
	"stsmatch/internal/wal"
)

// matchKey identifies one matched window independent of how it was
// found (standing query event vs. polled /v1/match result).
type matchKey struct {
	patientID, sessionID string
	start, n             int
}

func oracleSet(t *testing.T, url string, req MatchRequest) map[matchKey]RemoteMatch {
	t.Helper()
	resp := postJSON(t, url+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle match status %d", resp.StatusCode)
	}
	mr := decode[MatchResponse](t, resp)
	out := make(map[matchKey]RemoteMatch, len(mr.Matches))
	for _, m := range mr.Matches {
		out[matchKey{m.PatientID, m.SessionID, m.Start, m.N}] = m
	}
	return out
}

func pollEvents(t *testing.T, url, id string, after uint64) SubEventsPoll {
	t.Helper()
	got, code := getJSON[SubEventsPoll](t, fmt.Sprintf("%s/v1/subscriptions/%s/events?mode=poll&after=%d", url, id, after))
	if code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	return got
}

func ingestChunks(t *testing.T, url string, samples []plr.Sample, chunk int) {
	t.Helper()
	for i := 0; i < len(samples); i += chunk {
		end := min(i+chunk, len(samples))
		batch := make([]SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		if resp := postJSON(t, url+"/v1/sessions/S01/samples", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
}

// TestStandingQueryMatchesPolledOracle is the incremental-vs-oracle
// equivalence test: a standing query's event stream must equal the
// set difference of /v1/match polls taken before registration and
// after each ingested batch — same windows, same relation, and
// bit-identical distances and weights — because both sides run the
// same funnel over the same append-only stream.
func TestStandingQueryMatchesPolledOracle(t *testing.T) {
	ts, seq := matchTestServer(t) // P01/S01 with 45 s ingested
	qseq := seq[len(seq)-8:]

	// Patient-scoped provenance, exactly like the oracle query: the
	// relation is same-patient, so no self-exclusion complicates the
	// diff.
	oracleReq := MatchRequest{Seq: qseq, PatientID: "P01"}
	baseline := oracleSet(t, ts.URL, oracleReq)

	resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{
		ID: "oracle-eq", Seq: qseq, PatientID: "P01",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	sr := decode[SubscriptionResponse](t, resp)
	if sr.PatternN != len(qseq) {
		t.Errorf("patternN = %d, want %d", sr.PatternN, len(qseq))
	}

	// Continue the same deterministic signal: re-seeding and replaying
	// the first 45 s leaves the generator positioned exactly where
	// matchTestServer's ingest stopped, so the second Generate call
	// yields only the continuation.
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	gen.Generate(45)
	tail := gen.Generate(90)
	if len(tail) == 0 {
		t.Fatal("no continuation samples")
	}

	seen := make(map[matchKey]RemoteMatch, len(baseline))
	for k, v := range baseline {
		seen[k] = v
	}
	var events []SubEventOut
	cursor := uint64(0)
	for i := 0; i < len(tail); i += 512 {
		end := min(i+512, len(tail))
		ingestChunks(t, ts.URL, tail[i:end], 512)

		// The events visible after this batch must be exactly the
		// oracle's new matches for the same batch, in start order.
		batch := pollEvents(t, ts.URL, "oracle-eq", cursor)
		now := oracleSet(t, ts.URL, oracleReq)
		var fresh []RemoteMatch
		for k, m := range now {
			if _, ok := seen[k]; !ok {
				fresh = append(fresh, m)
				seen[k] = m
			}
		}
		if len(batch.Events) != len(fresh) {
			t.Fatalf("batch %d: %d events vs %d new oracle matches\nevents: %+v\nfresh: %+v",
				i/512, len(batch.Events), len(fresh), batch.Events, fresh)
		}
		for _, e := range batch.Events {
			m, ok := now[matchKey{e.PatientID, e.SessionID, e.Start, e.N}]
			if !ok {
				t.Fatalf("event %+v has no oracle counterpart", e)
			}
			if e.Distance != m.Distance || e.Weight != m.Weight || e.Relation != m.Relation {
				t.Errorf("event %+v diverges from oracle match %+v", e, m)
			}
		}
		events = append(events, batch.Events...)
		if len(batch.Events) > 0 {
			cursor = batch.Next
		}
	}
	if len(events) == 0 {
		t.Fatal("standing query produced no events over 45 s of matching signal")
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event seqs not contiguous from 1: %+v", events)
		}
	}

	// A final poll acknowledges the last batch (acks ride the next
	// poll's ?after=), then the counters must reconcile: matched equals
	// the events pushed, and the delivered high-water equals the ack.
	pollEvents(t, ts.URL, "oracle-eq", cursor)
	list, code := getJSON[struct {
		Subscriptions []subscribe.Status `json:"subscriptions"`
	}](t, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK || len(list.Subscriptions) != 1 {
		t.Fatalf("list: code %d, %d subs", code, len(list.Subscriptions))
	}
	st := list.Subscriptions[0]
	if st.Matched != len(events) {
		t.Errorf("matched counter %d != %d pushed events", st.Matched, len(events))
	}
	if st.Evals == 0 || st.Candidates == 0 {
		t.Errorf("funnel counters did not advance: %+v", st)
	}
	if st.Sent != uint64(len(events)) {
		t.Errorf("sent counter %d != %d delivered events", st.Sent, len(events))
	}
	if st.Delivered != cursor {
		t.Errorf("delivered high-water %d != last acked cursor %d", st.Delivered, cursor)
	}
}

// TestSubscriptionSSEStream exercises the push path proper: events
// arrive over a live SSE connection with the event sequence as the SSE
// id, trace headers are present on the stream response, and a
// reconnect with Last-Event-ID resumes exactly after the acked event.
func TestSubscriptionSSEStream(t *testing.T) {
	ts, seq := matchTestServer(t)
	qseq := seq[len(seq)-8:]
	resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{ID: "sse", Seq: qseq, PatientID: "P01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/subscriptions/sse/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type %q", ct)
	}
	if stream.Header.Get("X-Trace-Id") == "" {
		t.Error("SSE response missing X-Trace-Id")
	}
	if stream.Header.Get("Traceparent") == "" {
		t.Error("SSE response missing Traceparent")
	}

	// Ingest in the background; the stream must push events without the
	// client asking again. Errors are ignored (the test asserts on what
	// arrives over the stream, and the goroutine may outlive it).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
		if err != nil {
			return
		}
		gen.Generate(45) // replay what matchTestServer already ingested
		tail := gen.Generate(90)
		for i := 0; i < len(tail); i += 512 {
			end := min(i+512, len(tail))
			batch := make([]SampleIn, 0, end-i)
			for _, s := range tail[i:end] {
				batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
			}
			body, err := json.Marshal(batch)
			if err != nil {
				return
			}
			resp, err := http.Post(ts.URL+"/v1/sessions/S01/samples", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()
	defer wg.Wait()

	type sseEvent struct {
		id   uint64
		data SubEventOut
	}
	readEvents := func(r *bufio.Reader, n int) []sseEvent {
		var out []sseEvent
		var cur sseEvent
		for len(out) < n {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("stream read after %d events: %v", len(out), err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &cur.id)
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.data); err != nil {
					t.Fatalf("bad event payload %q: %v", line, err)
				}
				out = append(out, cur)
			}
		}
		return out
	}
	first := readEvents(bufio.NewReader(stream.Body), 2)
	cancel()
	stream.Body.Close()
	for i, e := range first {
		if e.id != uint64(i+1) || e.data.Seq != e.id {
			t.Fatalf("SSE ids not sequential from 1: %+v", first)
		}
	}

	// Reconnect with Last-Event-ID: the server must resume after the
	// acked event with no duplicates and no gap.
	req2, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/subscriptions/sse/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Last-Event-ID", "1")
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	stream2, err := http.DefaultClient.Do(req2.WithContext(ctx2))
	if err != nil {
		t.Fatal(err)
	}
	defer stream2.Body.Close()
	resumed := readEvents(bufio.NewReader(stream2.Body), 1)
	if resumed[0].id != 2 {
		t.Fatalf("resume after id 1 delivered id %d first", resumed[0].id)
	}
	if resumed[0].data != first[1].data {
		t.Errorf("redelivered event diverged: %+v vs %+v", resumed[0].data, first[1].data)
	}
}

// TestSubscriptionLifecycle covers validation and the delete path.
func TestSubscriptionLifecycle(t *testing.T) {
	ts, seq := matchTestServer(t)
	qseq := seq[len(seq)-6:]

	wide := qseq.Clone()
	for i := range wide {
		wide[i].Pos = make([]float64, 65)
	}
	for name, req := range map[string]SubscriptionRequest{
		"short pattern": {Seq: qseq[:1]},
		"negative k":    {Seq: qseq, K: -1},
		// Stored as a uint32, this k used to register as k = 1.
		"k past uint32": {Seq: qseq, K: 4294967297},
		// What the journal's decoder would refuse on recovery.
		"65-dimensional pattern": {Seq: wide},
		"2 MiB id":               {Seq: qseq, ID: strings.Repeat("x", 2<<20)},
	} {
		if resp := postJSON(t, ts.URL+"/v1/subscriptions", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	if resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{ID: "dup", Seq: qseq}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{ID: "dup", Seq: qseq}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate id: status %d, want 409", resp.StatusCode)
	}

	// Generated IDs: a create without an ID picks one.
	resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{Seq: qseq, SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen := decode[SubscriptionResponse](t, resp)
	if !strings.HasPrefix(gen.ID, "sub-") {
		t.Errorf("generated id %q", gen.ID)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscriptions/dup", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v status %d", err, resp.StatusCode)
	}
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("re-delete: %v status %d, want 404", err, resp.StatusCode)
	}
	if _, code := getJSON[SubEventsPoll](t, ts.URL+"/v1/subscriptions/dup/events?mode=poll"); code != http.StatusNotFound {
		t.Errorf("events after delete: status %d, want 404", code)
	}
	list, _ := getJSON[struct {
		Subscriptions []subscribe.Status `json:"subscriptions"`
	}](t, ts.URL+"/v1/subscriptions")
	if len(list.Subscriptions) != 1 || list.Subscriptions[0].ID != gen.ID {
		t.Errorf("list after delete = %+v, want only %s", list.Subscriptions, gen.ID)
	}

	// Healthz reports the subscription section.
	hz, code := getJSON[HealthzResponse](t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || hz.Subscriptions == nil || hz.Subscriptions.Count != 1 {
		t.Errorf("healthz subscriptions = %+v", hz.Subscriptions)
	}
}

// TestSubscriptionCrashRecovery kills a durable server mid-stream and
// requires the restarted one to re-arm the subscription and re-derive
// the exact pre-crash event sequence: a consumer resuming from its
// last acked id sees no duplicates and no gaps, and a subscription
// deleted before the crash stays dead.
func TestSubscriptionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDurableServer(t, dir)
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(90)
	ingestChunks(t, ts.URL, samples[:len(samples)/2], 256)
	pr, code := getJSON[PLRResponse](t, ts.URL+"/v1/sessions/S01/plr")
	if code != http.StatusOK || len(pr.Vertices) < 10 {
		t.Fatalf("plr: code %d, %d vertices", code, len(pr.Vertices))
	}
	qseq := plr.Sequence(pr.Vertices[len(pr.Vertices)-8:])

	if resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{ID: "durable", Seq: qseq, PatientID: "P01"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/subscriptions", SubscriptionRequest{ID: "doomed", Seq: qseq, PatientID: "P01"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscriptions/doomed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %v status %d", err, resp.StatusCode)
	}

	ingestChunks(t, ts.URL, samples[len(samples)/2:], 256)
	before := pollEvents(t, ts.URL, "durable", 0)
	if len(before.Events) < 2 {
		t.Fatalf("need >= 2 events to test the acked boundary, got %d", len(before.Events))
	}
	// Ack the first event (the poll with ?after= journals the ack).
	ackSeq := before.Events[0].Seq
	afterAck := pollEvents(t, ts.URL, "durable", ackSeq)
	if len(afterAck.Events) != len(before.Events)-1 {
		t.Fatalf("ack trimmed to %d events, want %d", len(afterAck.Events), len(before.Events)-1)
	}

	// Crash: abandon the server without shutdown.
	ts.Close()

	_, ts2 := newDurableServer(t, dir)
	list, code := getJSON[struct {
		Subscriptions []subscribe.Status `json:"subscriptions"`
	}](t, ts2.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Subscriptions) != 1 || list.Subscriptions[0].ID != "durable" {
		t.Fatalf("recovered subscriptions = %+v, want only %q", list.Subscriptions, "durable")
	}
	if got := list.Subscriptions[0].Delivered; got != ackSeq {
		t.Errorf("recovered delivered high-water %d, want %d", got, ackSeq)
	}

	// Resuming from the acked id must replay the identical remainder:
	// same sequence numbers, same windows, same distances — no
	// duplicate at the boundary, no gap after it.
	resumed := pollEvents(t, ts2.URL, "durable", ackSeq)
	if len(resumed.Events) != len(afterAck.Events) {
		t.Fatalf("recovered %d events after ack, want %d\n got %+v\nwant %+v",
			len(resumed.Events), len(afterAck.Events), resumed.Events, afterAck.Events)
	}
	for i, e := range resumed.Events {
		if e != afterAck.Events[i] {
			t.Errorf("recovered event %d diverged:\n got %+v\nwant %+v", i, e, afterAck.Events[i])
		}
	}

	// The deleted subscription must not resurrect.
	if _, code := getJSON[SubEventsPoll](t, ts2.URL+"/v1/subscriptions/doomed/events?mode=poll"); code != http.StatusNotFound {
		t.Errorf("deleted subscription resurrected: status %d", code)
	}

	// The recovered subscription keeps evaluating new arrivals (the
	// generator is stateful: this yields only samples past 90 s).
	ingestChunks(t, ts2.URL, gen.Generate(120), 256)
	final := pollEvents(t, ts2.URL, "durable", ackSeq)
	if len(final.Events) <= len(resumed.Events) {
		t.Errorf("no new events after recovery: %d then %d", len(resumed.Events), len(final.Events))
	}
	for i, e := range final.Events {
		if want := ackSeq + uint64(i) + 1; e.Seq != want {
			t.Fatalf("post-recovery seq %d at index %d, want %d (gap or duplicate)", e.Seq, i, want)
		}
	}
}

// FuzzSubscriptionRequest: the register body's decoder and Validate
// survive arbitrary bytes, and the subscription a validated request
// registers comes back from the journal's codec unchanged — so no
// acknowledged registration is one that recovery cannot read.
func FuzzSubscriptionRequest(f *testing.F) {
	valid, err := json.Marshal(SubscriptionRequest{ID: "s", Seq: seqStates("EOIEOI", 3), PatientID: "P01", SessionID: "S01", Threshold: 2.5, K: 5})
	if err != nil {
		f.Fatal(err)
	}
	wide := seqStates("EOI", 1)
	for i := range wide {
		wide[i].Pos = make([]float64, 65)
	}
	tooWide, err := json.Marshal(SubscriptionRequest{Seq: wide})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid, valid[:len(valid)/2], append(append([]byte{}, valid...), '}'), tooWide,
		[]byte(`{"seq":[{"t":0,"pos":[1],"state":1},{"t":1,"pos":[2],"state":2}],"k":4294967297}`),
		[]byte(`{"seq":[{"t":0,"pos":null,"state":1},{"t":1,"pos":[],"state":2}],"k":4294967295,"threshold":-1}`),
		[]byte(`{"seq":[{"t":1,"pos":[1],"state":1},{"t":1,"pos":[1,2],"state":9}],"k":-1}`),
		[]byte(`{"seq":null,"threshold":1e999}`), []byte(`[]`), []byte(`{"k":1e3}`), {},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubscriptionRequest
		if json.Unmarshal(body, &req) != nil || req.Validate() != nil {
			return
		}
		want := req.state()
		if int(want.K) != req.K {
			t.Fatalf("k = %d registers as %d", req.K, want.K)
		}
		b, err := wal.DecodeBatch(wal.EncodeBatch(wal.Batch{Records: []wal.Record{{Type: wal.TypeSubUpsert, Sub: &want}}}))
		if err != nil {
			t.Fatalf("a validated registration did not survive the journal's codec: %v\n%+v", err, req)
		}
		got := b.Records[0].Sub
		same := got.ID == want.ID && got.PatientID == want.PatientID && got.SessionID == want.SessionID && got.K == want.K &&
			math.Float64bits(got.Threshold) == math.Float64bits(want.Threshold) && len(got.Pattern) == len(want.Pattern)
		for i := 0; same && i < len(want.Pattern); i++ {
			a, b := got.Pattern[i], want.Pattern[i]
			same = math.Float64bits(a.T) == math.Float64bits(b.T) && a.State == b.State && len(a.Pos) == len(b.Pos)
			for j := 0; same && j < len(b.Pos); j++ {
				same = math.Float64bits(a.Pos[j]) == math.Float64bits(b.Pos[j])
			}
		}
		if !same {
			t.Fatalf("the journal's codec changed a validated registration:\n got %+v\nwant %+v", got, want)
		}
	})
}
