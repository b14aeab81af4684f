package shard_test

// Read-path benchmarks: the same deterministic query (from a session of
// its own per request, see benchQuery) through the scatter of a steady
// R=2 cluster — and, in BenchmarkRebalanceDrain, while the cluster
// grows a backend underneath it. Every response's
// match list is checked against the first answer, so CI's bench smoke
// at -benchtime=1x doubles as a cheap end-to-end exercise of both; for
// representative numbers run them at the default -benchtime (the
// `cluster` workload of bench/ is the gated figure for the scatter
// itself).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"stsmatch/internal/obs"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/signal"
	"stsmatch/internal/testutil"
)

// benchIngest mirrors ingestSession for benchmarks: create a session
// and stream a deterministic trace into it through the gateway.
func benchIngest(tb testing.TB, baseURL, pid, sid string, seed int64) {
	tb.Helper()
	resp := testutil.PostJSON(tb, baseURL+"/v1/sessions",
		server.CreateSessionRequest{PatientID: pid, SessionID: sid})
	if resp.StatusCode != http.StatusCreated {
		tb.Fatalf("create session %s via %s: status %d", sid, baseURL, resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	samples := gen.Generate(30)
	for i := 0; i < len(samples); i += 512 {
		end := min(i+512, len(samples))
		batch := make([]server.SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, server.SampleIn{T: s.T, Pos: s.Pos})
		}
		resp := testutil.PostJSON(tb, baseURL+"/v1/sessions/"+sid+"/samples", batch)
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("ingest %s: status %d", sid, resp.StatusCode)
		}
	}
}

// tryMatch posts raw body bytes and returns the decoded result.
func tryMatch(baseURL string, body []byte) (shard.MatchResult, error) {
	var res shard.MatchResult
	resp, err := http.Post(baseURL+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("match status %d: %s", resp.StatusCode, raw)
	}
	return res, json.Unmarshal(raw, &res)
}

// benchMatch is tryMatch for the benchmark's own goroutine.
func benchMatch(tb testing.TB, baseURL string, body []byte) shard.MatchResult {
	tb.Helper()
	res, err := tryMatch(baseURL, body)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// benchCohort ingests one 30 s session per patient through the gateway.
func benchCohort(b *testing.B, c *testutil.Cluster, pids []string) {
	b.Helper()
	for i, pid := range pids {
		benchIngest(b, c.URL, pid, "S-"+pid, int64(100+i))
	}
}

// benchQuery builds the request off the tail of S-P00, and the
// reference match-list bytes every response to it must reproduce. Each
// call of query renders the body asked from a session of P00's of its
// own, one no stream holds: the same query again would be repaired from
// each shard matcher's kept answer, and the funnel would not run over
// everything. Every stream stands in the same relation to each of them,
// so they do the same work and have one answer.
func benchQuery(b *testing.B, c *testutil.Cluster) (query func() []byte, want []byte) {
	b.Helper()
	pr := testutil.GetJSON[server.PLRResponse](b, c.URL+"/v1/sessions/S-P00/plr")
	if len(pr.Vertices) < 12 {
		b.Fatalf("query stream too short: %d vertices", len(pr.Vertices))
	}
	req := server.MatchRequest{Seq: pr.Vertices[len(pr.Vertices)-10:], PatientID: "P00", K: 10}
	asked := 0
	query = func() []byte {
		asked++
		req.SessionID = fmt.Sprintf("S-P00~%d", asked)
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	res := benchMatch(b, c.URL, query())
	if res.Degraded || len(res.Matches) == 0 {
		b.Fatalf("warmup degraded=%v matches=%d", res.Degraded, len(res.Matches))
	}
	want, err := json.Marshal(res.Matches)
	if err != nil {
		b.Fatal(err)
	}
	return query, want
}

// sameMatches reports how a response differs from the reference merge.
func sameMatches(res shard.MatchResult, want []byte) error {
	got, err := json.Marshal(res.Matches)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("matches diverged from the reference merge:\nwant %s\ngot  %s", want, got)
	}
	return nil
}

// checkMatches asserts one iteration reproduced the reference merge.
func checkMatches(b *testing.B, res shard.MatchResult, want []byte) {
	b.Helper()
	if err := sameMatches(res, want); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMatchPrimaryOnly keeps the name it had beside the
// follower-read benchmark: a scatter to every shard of an R=2 cluster.
func BenchmarkMatchPrimaryOnly(b *testing.B) {
	c := testutil.StartCluster(b, 3, 2)
	benchCohort(b, c, []string{"P00", "P01", "P02"})
	query, want := benchQuery(b, c)
	repaired := obs.Default().Counter("stsmatch_matcher_repaired_total", "")
	before := repaired.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchMatch(b, c.URL, query())
		checkMatches(b, res, want)
	}
	if n := repaired.Value() - before; n != 0 {
		b.Fatalf("%d shard legs were repairs of a kept answer, not the funnel", n)
	}
}

// BenchmarkRebalanceDrain is elasticity seen by a reader: an R=2
// 3-shard cluster holding 12 sessions grows a fourth backend
// (AddBackend + Rebalance, every ring-displaced session drained through
// the live-migration protocol) while a client keeps asking the same
// top-k query. It fails on a failed move, on a drain that moved
// nothing, and on any response before, during or after the drain that
// is degraded or differs from the pre-drain merge. One iteration is one
// whole scenario, cluster boot and ingest included, so ns/op is not the
// number to read: the drain's wall clock and the query latency in the
// three windows are reported as their own metrics.
func BenchmarkRebalanceDrain(b *testing.B) {
	const probes = 20 // timed queries before and after the drain
	var drainS, before, during, after, moved float64
	for i := 0; i < b.N; i++ {
		c := testutil.StartCluster(b, 3, 2)
		urls := []string{c.Nodes[0].URL, c.Nodes[1].URL, c.Nodes[2].URL}
		n4 := c.AddNode(nil)
		// One patient is picked for an arc that does move, the rest fall
		// as they may.
		pids := []string{movedPatient(b, urls, n4.URL)}
		for p := 0; p < 11; p++ {
			pids = append(pids, fmt.Sprintf("P%02d", p))
		}
		benchCohort(b, c, pids)
		query, want := benchQuery(b, c)

		checked := func() error {
			res, err := tryMatch(c.URL, query())
			if err != nil {
				return err
			}
			if res.Degraded {
				return fmt.Errorf("degraded: %d/%d shards", res.ShardsOK, res.ShardsQueried)
			}
			return sameMatches(res, want)
		}
		timed := func(window string) float64 {
			start := time.Now()
			for q := 0; q < probes; q++ {
				if err := checked(); err != nil {
					b.Fatalf("%s the drain: %v", window, err)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / probes
		}
		before += timed("before")

		// The background reader: at least one query, then until told to
		// stop; its counters are read only after done delivers.
		stop, done := make(chan struct{}), make(chan error, 1)
		var queries int
		var spent time.Duration
		go func() {
			for {
				start := time.Now()
				if err := checked(); err != nil {
					done <- err
					return
				}
				spent += time.Since(start)
				queries++
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
			}
		}()
		if err := c.Gateway.AddBackend(n4.URL); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		rep := c.Gateway.Rebalance(context.Background())
		drainS += time.Since(start).Seconds()
		close(stop)
		if err := <-done; err != nil {
			b.Fatalf("during the drain: %v", err)
		}
		if len(rep.Failed) > 0 {
			b.Fatalf("rebalance failed %d sessions: %v", len(rep.Failed), rep.Failed)
		}
		if len(rep.Moved) == 0 {
			b.Fatalf("rebalance moved no session onto the new backend (checked %d)", rep.Checked)
		}
		moved += float64(len(rep.Moved))
		during += float64(spent.Nanoseconds()) / float64(queries)
		after += timed("after")
		c.Close() // its names, for the next iteration's cluster
	}
	n := float64(b.N)
	b.ReportMetric(drainS/n, "drain-s")
	b.ReportMetric(moved/n, "moved-sessions")
	b.ReportMetric(before/n, "before-ns/match")
	b.ReportMetric(during/n, "during-ns/match")
	b.ReportMetric(after/n, "after-ns/match")
}
