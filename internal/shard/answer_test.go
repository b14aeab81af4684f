package shard_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/testutil"
)

// TestMatchAnswerBytesUnchanged: a pool of 64 query windows cut from
// every session — every other one asked without provenance, every fourth
// with an explicit now, every eighth with a max-lag, every sixteenth in
// threshold mode — through one server and through a 3-shard gateway at
// R=2. Every body is the bytes encoding/json makes of the value it
// decodes to: the server's with the newline json.Encoder writes, the
// gateway's as json.Marshal writes it. A max-lag never changes an
// answer: the gateway's bytes for each query are the same with a
// "maxLag":1<<20 body and with ?max-lag=10 as at max-lag 0.
func TestMatchAnswerBytesUnchanged(t *testing.T) {
	f := newFixture(t, 2)
	var sids []string
	for sid := range f.sessions {
		sids = append(sids, sid)
	}
	sort.Strings(sids)
	seqs := map[string]plr.Sequence{}
	for _, sid := range sids {
		seqs[sid] = testutil.GetJSON[server.PLRResponse](t, f.oracle.URL+"/v1/sessions/"+sid+"/plr").Vertices
	}
	for i := 0; i < 64; i++ {
		sid := sids[i%len(sids)]
		seq := seqs[sid]
		at := 7 * i % (len(seq) - 10)
		req := server.MatchRequest{Seq: seq[at : at+10], K: 10}
		if i%2 == 0 {
			req.PatientID, req.SessionID = f.sessions[sid], sid
		}
		if i%4 == 1 {
			now := seq[at+9].T + 1
			req.Now = &now
		}
		if i%8 == 3 {
			req.MaxLag = 1 << 20
		}
		if i%16 == 5 {
			req.K = 0
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}

		raw, _ := postMatch(t, f.oracle.URL+"/v1/match", "application/json", body)
		var resp server.MatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Fatalf("query %d: server answered\n%s\nencoding/json writes\n%s", i, trunc(raw), trunc(want.Bytes()))
		}

		raw, _ = postMatch(t, f.cluster.URL+"/v1/match", "application/json", body)
		var res shard.MatchResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		wantGW, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, wantGW) {
			t.Fatalf("query %d: gateway answered\n%s\nencoding/json writes\n%s", i, trunc(raw), trunc(wantGW))
		}
		if res.Degraded || len(res.Matches) == 0 && req.K > 0 {
			t.Fatalf("query %d: degraded=%v with %d matches", i, res.Degraded, len(res.Matches))
		}

		lag0 := req
		lag0.MaxLag = 0
		loose := req
		loose.MaxLag = 1 << 20
		for label, at := range map[string]struct {
			url string
			req server.MatchRequest
		}{
			"max-lag 0":      {f.cluster.URL + "/v1/match", lag0},
			`"maxLag":1<<20`: {f.cluster.URL + "/v1/match", loose},
			"?max-lag=10":    {f.cluster.URL + "/v1/match?max-lag=10", lag0},
		} {
			body, err := json.Marshal(at.req)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := postMatch(t, at.url, "application/json", body); !bytes.Equal(got, raw) {
				t.Fatalf("query %d: %s answered\n%s\nwhere the query as asked answered\n%s", i, label, trunc(got), trunc(raw))
			}
		}
	}
}
