package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/signal"
	"stsmatch/internal/store"
)

// matchBodies are the shapes the benchmark's query pool sends — with
// provenance, held out with no IDs, with an explicit now, in threshold
// mode — each as json.Marshal writes it.
func matchBodies(t testing.TB) [][]byte {
	t.Helper()
	now := 12.5
	seq := seqStates("EOIEOIEOIE", 3)
	var out [][]byte
	for _, req := range []MatchRequest{
		{Seq: seq, PatientID: "P007", SessionID: "P007-s1", K: 10},
		{Seq: seq, K: 10},
		{Seq: seq, PatientID: "P01", SessionID: "S01", Now: &now, K: 5},
		{Seq: seq, PatientID: "P01", SessionID: "S01", Now: &now},
		{Seq: seq},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

const oneVertex = `{"t":0,"pos":[1],"state":1}`

// matchCorpus is what the match scanner must take, and what it must
// leave to json.Unmarshal.
var matchCorpus = []struct {
	body string
	fast bool
}{
	{`{"seq":[{"t":0,"pos":[1],"state":0},{"t":1.5,"pos":[-2e-3],"state":2}]}`, true},
	{`{"seq":[]}`, true},
	{`{"seq":[{"t":0,"pos":[1,2],"state":1}],"patientId":"P01","sessionId":"S01","now":12.5,"k":5}`, true},
	{" { \"seq\" : [ { \"t\" : 0 , \"pos\" : [ ] , \"state\" : 3 } ] , \"k\" : 0 }\r\n", true},
	{`{"seq":[` + oneVertex + `],"sessionId":"S 01/x?%#","maxLag":7}`, false},
	{`{"seq":[` + oneVertex + `],"patientId":"","now":-0}`, true},
	{`{"seq":[{"t":0,"pos":[1],"state":255}],"k":1099511627776}`, true},
	{`{"seq":[` + oneVertex + `],"sessionId":"S 01/x?%#","now":1e308,"k":0}`, true},
	{`{"k":1,"seq":[` + oneVertex + `]}`, false},
	{`{"seq":[` + oneVertex + `],"sessionId":"S","patientId":"P"}`, false},
	{`{"seq":[` + oneVertex + `],"maxLag":1,"k":1}`, false},
	{`{"Seq":[` + oneVertex + `]}`, false},
	{`{"seq":[` + oneVertex + `],"PatientId":"P"}`, false},
	{`{"seq":[` + oneVertex + `],"k":1,"k":2}`, false},
	{`{"seq":[` + oneVertex + `],"seq":[]}`, false},
	{`{"seq":null}`, false},
	{`{"seq":[{"t":0,"pos":null,"state":1}]}`, false},
	{`{"seq":[` + oneVertex + `],"now":null}`, false},
	{`{"seq":[` + oneVertex + `],"patientId":null}`, false},
	{`{"seq":[` + oneVertex + `],"patientId":"P\u0030"}`, false},
	{`{"seq":[` + oneVertex + `],"patientId":"P\"1"}`, false},
	{`{"seq":[` + oneVertex + `],"patientId":"Pé"}`, false},
	{"{\"seq\":[" + oneVertex + "],\"patientId\":\"P\t1\"}", false},
	{`{"seq":[` + oneVertex + `],"k":1e2}`, false},
	{`{"seq":[` + oneVertex + `],"k":1.0}`, false},
	{`{"seq":[` + oneVertex + `],"k":-1}`, false},
	{`{"seq":[` + oneVertex + `],"k":-0}`, false},
	{`{"seq":[` + oneVertex + `],"k":01}`, false},
	{`{"seq":[` + oneVertex + `],"k":1099511627777}`, false},
	{`{"seq":[` + oneVertex + `],"maxLag":99999999999999999999}`, false},
	{`{"seq":[{"t":0,"pos":[1],"state":256}]}`, false},
	{`{"seq":[{"t":0,"pos":[1],"state":-1}]}`, false},
	{`{"seq":[{"t":0,"pos":[1],"state":1e0}]}`, false},
	{`{"seq":[{"t":0,"pos":[1]}]}`, false},
	{`{"seq":[{"t":0,"state":1,"pos":[1]}]}`, false},
	{`{"seq":[{"t":0,"pos":[1],"state":1,"x":0}]}`, false},
	{`{"seq":[` + oneVertex + `],"extra":1}`, false},
	{`{"seq":[{"t":1e400,"pos":[1],"state":1}]}`, false},
	{`{"seq":[` + oneVertex + `],"now":1e400}`, false},
	{`{"seq":[` + oneVertex + `,]}`, false},
	{`{"seq":[` + oneVertex + `],}`, false},
	{`{"seq":[` + oneVertex + `]}x`, false},
	{`{"seq":[` + oneVertex + `]} {}`, false},
	{`{"seq":[` + oneVertex + `]`, false},
	{`{}`, false},
	{`[]`, false},
	{`null`, false},
	{``, false},
	{"\xef\xbb\xbf{\"seq\":[]}", false},
}

// TestScanMatchRequestAgainstJSON pins both halves of the match
// scanner's contract on the corpus and on the pool's shapes: it takes
// exactly the shapes marked fast, and whatever it takes it decodes to
// what json.Unmarshal decodes.
func TestScanMatchRequestAgainstJSON(t *testing.T) {
	check := func(body []byte, fast bool) {
		t.Helper()
		got, ok := scanMatchRequest(body)
		if ok != fast {
			t.Errorf("scanMatchRequest(%s) took it = %v, want %v", body, ok, fast)
		}
		if !ok {
			return
		}
		var want MatchRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Errorf("scanMatchRequest took %s, which json.Unmarshal refuses: %v", body, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("scanMatchRequest(%s) = %+v, json.Unmarshal = %+v", body, got, want)
		}
	}
	for _, tc := range matchCorpus {
		check([]byte(tc.body), tc.fast)
	}
	for _, body := range matchBodies(t) {
		check(body, true)
	}
}

// FuzzMatchAnswerJSON: for arbitrary IDs, starts, relations and float
// bit patterns, each fixed-shape answer the appender writes — the
// shard's match list, the gateway's, the ingest ack and the prediction —
// is byte for byte what encoding/json writes for the same value, or the
// appender declines.
func FuzzMatchAnswerJSON(f *testing.F) {
	f.Add("P01", "S01", 3, 10, uint8(0), math.Float64bits(0.25), math.Float64bits(0.8))
	f.Add("a<b", "S01", -1, 0, uint8(2), math.Float64bits(1e-7), math.Float64bits(1e21))
	f.Add("P01", "a>b", 2, 0, uint8(2), math.Float64bits(0.5), math.Float64bits(2))
	f.Add("a&b", "S01", 2, 0, uint8(2), math.Float64bits(0.5), math.Float64bits(2))
	f.Add("P\u00e9", "S\x7f", 0, 1, uint8(1), math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()))
	f.Add("", "a\"b", 1<<40, -1<<40, uint8(9), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(5e-324))
	f.Add("P\u2028", "S\\", 7, 7, uint8(0), math.Float64bits(-9.999999e-7), math.Float64bits(123456789.125))
	f.Add("P\n", "S01", 7, 7, uint8(0), math.Float64bits(1), math.Float64bits(1))
	f.Add("IN", "EOE", 0, 0, uint8(1), math.Float64bits(-1e21), math.Float64bits(999999999999999999999.0))
	f.Fuzz(func(t *testing.T, pid, sid string, start, n int, rel uint8, distBits, weightBits uint64) {
		dist, weight := math.Float64frombits(distBits), math.Float64frombits(weightBits)
		cm := []core.Match{
			{Stream: &store.Stream{PatientID: pid, SessionID: sid}, Start: start, N: n,
				Relation: core.SourceRelation(rel), Distance: dist, Weight: weight},
			{Stream: &store.Stream{PatientID: sid, SessionID: pid}, Start: n, N: start,
				Relation: core.SameSession, Distance: weight, Weight: dist},
		}
		rm := []RemoteMatch{
			{PatientID: pid, SessionID: sid, Start: start, N: n, Relation: cm[0].Relation.String(), Distance: dist, Weight: weight},
			{PatientID: sid, SessionID: pid, Start: n, N: start, Relation: pid, Distance: weight, Weight: dist},
		}
		same := func(what string, write func(a *JSONAnswer), v any, newline bool) {
			t.Helper()
			a := NewJSONAnswer()
			write(a)
			rec := httptest.NewRecorder()
			if !a.Write(rec, http.StatusOK) {
				return
			}
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: the appender wrote %s, which encoding/json refuses: %v", what, rec.Body, err)
			}
			if newline {
				want = append(want, '\n')
			}
			if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s:\nappender      %s\nencoding/json %s", what, rec.Body, want)
			}
		}
		shardList := []RemoteMatch{rm[0], rm[1]}
		shardList[1].Relation = cm[1].Relation.String()
		same("shard match list", func(a *JSONAnswer) { a.Raw("{"); a.coreMatches(cm); a.Raw("}\n") }, MatchResponse{Matches: shardList}, true)
		same("empty shard match list", func(a *JSONAnswer) { a.Raw("{"); a.coreMatches(nil); a.Raw("}\n") },
			MatchResponse{Matches: []RemoteMatch{}}, true)
		same("gateway match list", func(a *JSONAnswer) { a.Raw("{"); a.Matches(rm); a.Raw("}") }, MatchResponse{Matches: rm}, false)
		same("nil gateway match list", func(a *JSONAnswer) { a.Raw("{"); a.Matches(nil); a.Raw("}") }, MatchResponse{}, false)

		// The served writers: their bytes are writeJSON's, whichever path
		// they take.
		for _, tc := range []struct {
			name        string
			write, want func(w http.ResponseWriter)
		}{
			{"ingest ack", func(w http.ResponseWriter) {
				writeSamplesAck(w, SamplesResponse{Accepted: start, NewVertices: n, TotalSamples: int(rel), CurrentState: pid})
			}, func(w http.ResponseWriter) {
				writeJSON(w, http.StatusOK, SamplesResponse{Accepted: start, NewVertices: n, TotalSamples: int(rel), CurrentState: pid})
			}},
			{"prediction", func(w http.ResponseWriter) {
				writePrediction(w, PredictionResponse{Pos: []float64{dist, weight}, DeltaMS: weight, NumMatches: n, MeanDist: dist, QueryLen: start, Stable: rel%2 == 0})
			}, func(w http.ResponseWriter) {
				writeJSON(w, http.StatusOK, PredictionResponse{Pos: []float64{dist, weight}, DeltaMS: weight, NumMatches: n, MeanDist: dist, QueryLen: start, Stable: rel%2 == 0})
			}},
		} {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			tc.write(got)
			tc.want(want)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s: %d %s, writeJSON %d %s", tc.name, got.Code, got.Body, want.Code, want.Body)
			}
		}
	})
}

// TestFixedShapeAnswersFallBack: an ack with a replica error and a match
// list with a profile go through encoding/json, and a nil or an empty
// forecast comes out as writeJSON writes it.
func TestFixedShapeAnswersFallBack(t *testing.T) {
	profile := &obs.Profile{TraceID: "0123456789abcdef0123456789abcdef"}
	for name, tc := range map[string]struct{ got, want func(w http.ResponseWriter) }{
		"profile": {
			func(w http.ResponseWriter) { writeMatches(w, nil, profile) },
			func(w http.ResponseWriter) {
				writeJSON(w, http.StatusOK, MatchResponse{Matches: []RemoteMatch{}, Profile: profile})
			}},
		"replica errors": {
			func(w http.ResponseWriter) {
				writeSamplesAck(w, SamplesResponse{Accepted: 1, CurrentState: "IN", ReplicaErrors: []string{"http://r1: down"}})
			},
			func(w http.ResponseWriter) {
				writeJSON(w, http.StatusOK, SamplesResponse{Accepted: 1, CurrentState: "IN", ReplicaErrors: []string{"http://r1: down"}})
			}},
		"nil forecast": {
			func(w http.ResponseWriter) { writePrediction(w, PredictionResponse{}) },
			func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, PredictionResponse{}) }},
		"empty forecast": {
			func(w http.ResponseWriter) { writePrediction(w, PredictionResponse{Pos: []float64{}}) },
			func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, PredictionResponse{Pos: []float64{}}) }},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		tc.got(got)
		tc.want(want)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: %d %s, writeJSON %d %s", name, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestWriteJSONRefusesNonFinite: a value encoding/json refuses is a 500
// naming the cause, not a 200 with an empty body.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, PredictionResponse{Pos: []float64{x}})
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
			!strings.Contains(body["error"], "unsupported value") {
			t.Errorf("writeJSON of pos %v: status %d, body %q", x, rec.Code, rec.Body)
		}
	}
}

// TestServedMatchAllocs: a JSON /v1/match through the mux allocates as
// often for a 25-vertex query as for a 10-vertex one — the decode makes
// one sequence and one position array, the answer goes out of a pooled
// buffer — and 15 times where encoding/json's decode and encode made it
// 42 (10 vertices) and 58 (25 vertices), whether it runs the funnel over
// everything or repairs the matcher's kept answer to the same query.
func TestServedMatchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the body and answer pools drop buffers at random under the race detector")
	}
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 6, 1, 120
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One worker and one P, as TestPredictAllocsFlat has them.
	params := core.DefaultParams()
	params.Parallelism = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := NewWithOptions(db, params, fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hist := db.Streams()[0]
	seq := hist.Seq()
	repaired := obs.Default().Counter("stsmatch_matcher_repaired_total", "")
	allocs := map[int]float64{}
	funnel := map[int]float64{}
	for _, n := range []int{10, 25} {
		// The query asked from sessions of its own, one per request, that
		// no stream holds: each is a search the matcher keeps no answer to.
		const fill, runs = 128, 50 // the matcher keeps 128 answers
		bodies := make([][]byte, fill+runs+1)
		for i := range bodies {
			body, err := json.Marshal(MatchRequest{Seq: seq[len(seq)-n:], PatientID: hist.PatientID,
				SessionID: fmt.Sprintf("%s~%d", hist.SessionID, i), K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := scanMatchRequest(body); !ok {
				t.Fatalf("%d-vertex query declined by the scanner", n)
			}
			bodies[i] = body
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/match", nil)
		w := &chainWriter{h: http.Header{}}
		var rd bytes.Reader
		asked := 0
		serve := func() {
			clear(w.h)
			w.code = http.StatusOK
			rd.Reset(bodies[asked%len(bodies)])
			req.Body = io.NopCloser(&rd)
			srv.mux.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%d-vertex query: status %d", n, w.code)
			}
		}
		// Take every answer slot, with its buffers sized, then measure
		// searches that run the funnel over everything.
		for asked = 0; asked < fill; asked++ {
			serve()
		}
		runtime.GC()
		before := repaired.Value()
		funnel[n] = testing.AllocsPerRun(runs, func() { serve(); asked++ })
		if r := repaired.Value() - before; r != 0 {
			t.Fatalf("%d-vertex queries: %d of the distinct matches were repairs", n, r)
		}
		// The last body again and again: a repaired match.
		asked--
		allocs[n] = testing.AllocsPerRun(runs, serve)
		if r := repaired.Value() - before; r != runs+1 {
			t.Fatalf("%d-vertex queries: %d of %d repeated matches repaired", n, r, runs+1)
		}
	}
	for name, got := range map[string]map[int]float64{"searched": funnel, "repaired": allocs} {
		if got[10] != got[25] {
			t.Errorf("a %s match allocates %v times for 10 vertices and %v for 25", name, got[10], got[25])
		}
	}
	if allocs[10] > 15 {
		t.Errorf("a repaired served match allocates %v times, want at most 15", allocs[10])
	}
	if funnel[10] > 15 {
		t.Errorf("a searched served match allocates %v times, want at most 15", funnel[10])
	}
}
