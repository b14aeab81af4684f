package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/wal"
)

// matchTestServer ingests one synthetic session so the database has
// searchable history, and returns the server plus the session's PLR.
func matchTestServer(t *testing.T) (*httptest.Server, plr.Sequence) {
	t.Helper()
	ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	gen, err := signal.NewRespiration(signal.DefaultRespiration(), 7)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(45)
	for i := 0; i < len(samples); i += 512 {
		end := min(i+512, len(samples))
		batch := make([]SampleIn, 0, end-i)
		for _, s := range samples[i:end] {
			batch = append(batch, SampleIn{T: s.T, Pos: s.Pos})
		}
		if resp := postJSON(t, ts.URL+"/v1/sessions/S01/samples", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	resp, err2 := http.Get(ts.URL + "/v1/sessions/S01/plr")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer resp.Body.Close()
	pr := decode[PLRResponse](t, resp)
	if len(pr.Vertices) < 12 {
		t.Fatalf("PLR too short: %d", len(pr.Vertices))
	}
	return ts, plr.Sequence(pr.Vertices)
}

func TestMatchEndpoint(t *testing.T) {
	ts, seq := matchTestServer(t)
	qseq := seq[len(seq)-10:]

	// Threshold mode (k = 0) with same-session provenance: matches
	// must be sorted and self-excluded windows absent.
	resp := postJSON(t, ts.URL+"/v1/match", MatchRequest{Seq: qseq, PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	mr := decode[MatchResponse](t, resp)
	if len(mr.Matches) == 0 {
		t.Fatal("no matches on a regular breathing stream")
	}
	if !sort.SliceIsSorted(mr.Matches, func(a, b int) bool {
		return mr.Matches[a].Distance < mr.Matches[b].Distance
	}) {
		t.Error("matches not sorted by ascending distance")
	}
	for _, m := range mr.Matches {
		if m.Relation != "same-session" {
			t.Errorf("single-stream db produced relation %q", m.Relation)
		}
		if m.N != len(qseq) {
			t.Errorf("match N = %d, want %d", m.N, len(qseq))
		}
	}

	// Top-k mode returns exactly k (the stream has many candidates).
	resp = postJSON(t, ts.URL+"/v1/match", MatchRequest{Seq: qseq, PatientID: "P01", SessionID: "S01", K: 3})
	topk := decode[MatchResponse](t, resp)
	if len(topk.Matches) != 3 {
		t.Errorf("top-k returned %d, want 3", len(topk.Matches))
	}

	// Ad-hoc query (no provenance): every candidate is other-patient.
	resp = postJSON(t, ts.URL+"/v1/match", MatchRequest{Seq: qseq, K: 2})
	adhoc := decode[MatchResponse](t, resp)
	for _, m := range adhoc.Matches {
		if m.Relation != "other-patient" {
			t.Errorf("ad-hoc query produced relation %q", m.Relation)
		}
	}

	// Validation failures.
	for name, req := range map[string]MatchRequest{
		"short":    {Seq: qseq[:1]},
		"negative": {Seq: qseq, K: -1},
		"invalid":  {Seq: plr.Sequence{{T: 2, Pos: []float64{0}}, {T: 1, Pos: []float64{0}}}},
	} {
		resp := postJSON(t, ts.URL+"/v1/match", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s query status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestShardStats(t *testing.T) {
	ts, _ := matchTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/shard/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := decode[ShardStatsResponse](t, resp)
	if st.Patients != 1 || st.Streams != 1 {
		t.Errorf("stats %+v, want 1 patient / 1 stream", st)
	}
	if st.Vertices == 0 {
		t.Error("no vertices reported")
	}
	if len(st.Sessions) != 1 || st.Sessions[0].SessionID != "S01" || st.Sessions[0].PatientID != "P01" {
		t.Errorf("sessions %+v, want the open S01", st.Sessions)
	}
	if st.Sessions[0].Samples == 0 {
		t.Error("open session reports zero samples")
	}
}

func TestMaxBodyBytes(t *testing.T) {
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{PatientID: "P01", SessionID: "S01"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}

	// A batch padded to exactly the cap is read; one byte more is
	// rejected with 413, not decoded.
	post := func(t0, size int) int {
		t.Helper()
		body := []byte(fmt.Sprintf(`[{"t":%d,"pos":[1]}]`, t0))
		body = append(body, bytes.Repeat([]byte{' '}, size-len(body))...)
		resp, err := http.Post(ts.URL+"/v1/sessions/S01/samples", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(0, DefaultMaxBodyBytes); code != http.StatusOK {
		t.Errorf("batch at the cap status %d, want 200", code)
	}
	if code := post(1, DefaultMaxBodyBytes+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("batch one byte over the cap status %d, want 413", code)
	}
}

// FuzzMatchRequest feeds arbitrary bytes to /v1/match's JSON decoder
// and Validate: neither may panic, and the scanner either declines or
// returns exactly what json.Unmarshal returns (reflect.DeepEqual, so nil
// is not empty), which makes the decoder json.Unmarshal by
// construction. A request that validates is one the gateway will put on
// a leg, so it must come back from the leg codec with the k, now,
// provenance and sequence it went in with. The leg format has the WAL's
// record limits (64 dimensions, 1 MiB strings), which JSON does not:
// past them the leg decoder must refuse the request whole (ErrTorn, a
// 400 from the shard), never change it.
func FuzzMatchRequest(f *testing.F) {
	now := 12.5
	valid, err := json.Marshal(MatchRequest{Seq: seqStates("EOIEOI", 3), PatientID: "P01", SessionID: "S01", Now: &now, K: 5})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid, valid[:len(valid)/2], append(append([]byte{}, valid...), '}'),
		[]byte(`{"seq":[{"t":0,"pos":null,"state":1},{"t":1,"pos":[],"state":2}]}`),
		[]byte(`{"seq":[{"t":1,"pos":[1],"state":1},{"t":1,"pos":[1,2],"state":9}],"k":-1}`),
		[]byte(`{"seq":null,"now":1e999}`), []byte(`[]`), []byte(`{"k":1e3}`), {},
	} {
		f.Add(seed)
	}
	for _, body := range matchBodies(f) {
		f.Add(body)
	}
	for _, tc := range matchCorpus {
		f.Add([]byte(tc.body))
	}
	for _, s := range numberCases {
		f.Add([]byte(`{"seq":[{"t":` + s + `,"pos":[` + s + `],"state":1}],"now":` + s + `,"k":2}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := scanMatchRequest(body); ok {
			var want MatchRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("the scanner took %q, which json.Unmarshal refuses: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanMatchRequest(%q) = %+v, json.Unmarshal = %+v", body, got, want)
			}
		}
		req, err := decodeMatchRequest(body, false)
		if err != nil || req.Validate() != nil {
			return
		}
		got, err := wal.DecodeMatchLegRequest(wal.AppendMatchLegRequest(nil, wal.MatchLegRequest{
			K: req.K, Now: req.Now, PatientID: req.PatientID, SessionID: req.SessionID, Seq: req.Seq,
		}))
		if err != nil {
			if errors.Is(err, wal.ErrTorn) && (req.Seq.Dims() > 64 || len(req.PatientID) > 1<<20 || len(req.SessionID) > 1<<20) {
				return
			}
			t.Fatalf("a validated request did not survive the leg codec: %v\n%+v", err, req)
		}
		same := got.K == req.K && got.PatientID == req.PatientID && got.SessionID == req.SessionID &&
			(got.Now == nil) == (req.Now == nil) && len(got.Seq) == len(req.Seq)
		if same && req.Now != nil {
			same = math.Float64bits(*got.Now) == math.Float64bits(*req.Now)
		}
		for i := 0; same && i < len(req.Seq); i++ {
			a, b := got.Seq[i], req.Seq[i]
			same = math.Float64bits(a.T) == math.Float64bits(b.T) && a.State == b.State && len(a.Pos) == len(b.Pos)
			for j := 0; same && j < len(b.Pos); j++ {
				same = math.Float64bits(a.Pos[j]) == math.Float64bits(b.Pos[j])
			}
		}
		if !same {
			t.Fatalf("leg codec changed a validated request:\n got %+v\nwant %+v", got, req)
		}
	})
}
