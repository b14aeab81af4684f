package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
)

// benchBatch is the shape the benchmark (and a 30 Hz console) posts:
// one second of 1-D samples, marshalled by encoding/json.
func benchBatch(t testing.TB, n, dims int) []byte {
	t.Helper()
	in := make([]SampleIn, n)
	for i := range in {
		in[i].T = 12.5 + float64(i)/30
		for d := 0; d < dims; d++ {
			in[i].Pos = append(in[i].Pos, 7.25*math.Sin(float64(i)/5)+float64(d))
		}
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameSamples reports whether two decoded batches are the same value,
// bit for bit (so -0 is not 0) and nil for nil (so null is not []).
func sameSamples(a, b []SampleIn) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			len(a[i].Pos) != len(b[i].Pos) || (a[i].Pos == nil) != (b[i].Pos == nil) {
			return false
		}
		for j := range a[i].Pos {
			if math.Float64bits(a[i].Pos[j]) != math.Float64bits(b[i].Pos[j]) {
				return false
			}
		}
	}
	return true
}

// samplesCorpus is what the scanner must take, and what it must leave
// to json.Unmarshal.
var samplesCorpus = []struct {
	body string
	fast bool
}{
	{`[{"t":1,"pos":[1]}]`, true},
	{`[]`, true},
	{" [ ]\n", true},
	{`[{"t":0.5,"pos":[1,2,3]},{"t":1e0,"pos":[-0,0.25E+2,1e-7]}]`, true},
	{`[{"t":-0,"pos":[]}]`, true},
	{"[\n  {\"t\": 1, \"pos\": [1, 2]},\r\n\t{\"t\": 2, \"pos\": [3, 4]}\n]\n", true},
	{`[{"t":123456789012345678901234567890123456789012345678901234567890,"pos":[0.1000000000000000055511151231257827]}]`, true},
	{`[{"pos":[1],"t":1}]`, false},
	{`[{"t":1e400,"pos":[1]}]`, false},
	{`[{"t":01,"pos":[1]}]`, false},
	{`[{"t":1.,"pos":[1]}]`, false},
	{`[{"t":.5,"pos":[1]}]`, false},
	{`[{"t":+1,"pos":[1]}]`, false},
	{`[{"t":-,"pos":[1]}]`, false},
	{`[{"t":1e,"pos":[1]}]`, false},
	{`[{"t":0x10,"pos":[1]}]`, false},
	{`[{"t":NaN,"pos":[1]}]`, false},
	{`[{"t":null,"pos":[1]}]`, false},
	{`[{"t":1,"pos":null}]`, false},
	{`[{"t":1,"t":2,"pos":[1]}]`, false},
	{`[{"T":1,"pos":[1]}]`, false},
	{`[{"t":1,"Pos":[1]}]`, false},
	{`[{"\u0074":1,"pos":[1]}]`, false},
	{`[{"t":1,"pos":[1],"extra":{"a":[1,{"b":2}]}}]`, false},
	{`[{"t":1}]`, false},
	{`[{}]`, false},
	{`[{"t":"1","pos":[1]}]`, false},
	{`[{"t":1,"pos":[[1]]}]`, false},
	{`[{"t":1,"pos":[1,]}]`, false},
	{`[{"t":1,"pos":[1]},]`, false},
	{`[{"t":1,"pos":[1]}]garbage{`, false},
	{`[{"t":1,"pos":[1]}] []`, false},
	{`null`, false},
	{`{"t":1,"pos":[1]}`, false},
	{`[{"t":1,"pos":[1]}`, false},
	{``, false},
	{"\xef\xbb\xbf[]", false},
}

// TestScanSamplesAgainstJSON pins both halves of the scanner's
// contract on the corpus: it takes exactly the shapes marked fast, and
// whatever it takes it decodes to what json.Unmarshal decodes.
func TestScanSamplesAgainstJSON(t *testing.T) {
	for _, tc := range samplesCorpus {
		got, ok := scanSamples([]byte(tc.body))
		if ok != tc.fast {
			t.Errorf("scanSamples(%q) took it = %v, want %v", tc.body, ok, tc.fast)
		}
		if !ok {
			continue
		}
		var want []SampleIn
		if err := json.Unmarshal([]byte(tc.body), &want); err != nil {
			t.Errorf("scanSamples took %q, which json.Unmarshal refuses: %v", tc.body, err)
		} else if !sameSamples(got, want) {
			t.Errorf("scanSamples(%q) = %+v, json.Unmarshal = %+v", tc.body, got, want)
		}
	}
	if _, ok := scanSamples(benchBatch(t, 30, 1)); !ok {
		t.Error("scanSamples declined the benchmark's batch")
	}
}

// FuzzSamplesDecode is the differential: for arbitrary bytes the
// scanner either declines or returns exactly what json.Unmarshal
// returns, so decodeSamples is json.Unmarshal by construction.
func FuzzSamplesDecode(f *testing.F) {
	for _, tc := range samplesCorpus {
		f.Add([]byte(tc.body))
	}
	f.Add(benchBatch(f, 30, 1))
	f.Add(benchBatch(f, 4, 3))
	for _, s := range numberCases {
		f.Add([]byte(`[{"t":` + s + `,"pos":[` + s + `,-1]}]`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := scanSamples(data)
		if !ok {
			if got != nil {
				t.Fatalf("declined %q but returned %+v", data, got)
			}
			return
		}
		var want []SampleIn
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("took %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !sameSamples(got, want) {
			t.Fatalf("scanSamples(%q) = %+v, json.Unmarshal = %+v", data, got, want)
		}
	})
}

// TestScanSamplesAllocs pins the decode of one second of signal at the
// batch and the shared Pos backing (the issue allows a third).
func TestScanSamplesAllocs(t *testing.T) {
	for _, dims := range []int{1, 3} {
		data := benchBatch(t, 30, dims)
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := scanSamples(data); !ok {
				t.Fatal("declined the benchmark's batch")
			}
		})
		if allocs > 3 {
			t.Errorf("%d-D batch of 30: %.0f allocations, want <= 3", dims, allocs)
		}
	}
}

// BenchmarkDecodeSamples times the two request decoders a served
// session keeps busy, on the shapes json.Marshal writes: a 30-sample
// ingest batch (one second at 30 Hz) and a 10-vertex match body, every
// number a full-precision float as a console or the gateway sends it.
func BenchmarkDecodeSamples(b *testing.B) {
	batch := benchBatch(b, 30, 1)
	seq := make(plr.Sequence, 10)
	for i := range seq {
		seq[i] = plr.Vertex{T: 12.5 + float64(i)*1.3/3, Pos: []float64{7.25 * math.Sin(float64(i)/2)}, State: plr.State(i % 3)}
	}
	match, err := json.Marshal(MatchRequest{Seq: seq, PatientID: "P007", SessionID: "P007-s1", K: 10})
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := scanSamples(batch); !ok {
		b.Fatal("the scanner declined the batch")
	}
	if _, ok := scanMatchRequest(match); !ok {
		b.Fatal("the scanner declined the match body")
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(batch)))
		for range b.N {
			if _, err := decodeSamples(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("match", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(match)))
		for range b.N {
			if _, err := DecodeMatchRequest(match); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestScanSamplesPosDoNotOverlap: every Pos is cut from one backing
// array, so a consumer appending to one must not write into the next.
func TestScanSamplesPosDoNotOverlap(t *testing.T) {
	batch, ok := scanSamples([]byte(`[{"t":1,"pos":[1,2]},{"t":2,"pos":[3,4]}]`))
	if !ok {
		t.Fatal("declined")
	}
	_ = append(batch[0].Pos, 99)
	if batch[1].Pos[0] != 3 {
		t.Errorf("append to sample 0's Pos overwrote sample 1's: %v", batch[1].Pos)
	}
}

// TestStrictBodies: a body is one JSON value. Bytes after it used to be
// ignored (the stream decoder stops at the first value); now they are a
// 400 on every route that takes a body from a client, while a body over
// the cap is still a 413.
func TestStrictBodies(t *testing.T) {
	srv, err := NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/sessions", `{"patientId":"P01","sessionId":"S01"}`); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	seq := `[{"t":0,"pos":[0],"state":0},{"t":1,"pos":[1],"state":1},{"t":2,"pos":[0],"state":2}]`
	for _, tc := range []struct {
		route, path, body string
		ok                int
	}{
		{"samples", "/v1/sessions/S01/samples", `[{"t":%d,"pos":[1]}]`, http.StatusOK},
		{"samples off the fast path", "/v1/sessions/S01/samples", `[{"pos":[1],"t":10%d}]`, http.StatusOK},
		{"match", "/v1/match", `{"k":%d,"seq":` + seq + `}`, http.StatusOK},
		{"create session", "/v1/sessions", `{"patientId":"P02","sessionId":"S%d"}`, http.StatusCreated},
		{"create subscription", "/v1/subscriptions", `{"id":"sub-%d","seq":` + seq + `}`, http.StatusCreated},
	} {
		n := 0
		body := func() string { n++; return fmt.Sprintf(tc.body, n) }
		if code := post(tc.path, body()); code != tc.ok {
			t.Errorf("%s: clean body status %d, want %d", tc.route, code, tc.ok)
		}
		if code := post(tc.path, body()+" \n"); code != tc.ok {
			t.Errorf("%s: trailing whitespace status %d, want %d", tc.route, code, tc.ok)
		}
		for _, tail := range []string{"garbage{", "{}", "]", "\x00"} {
			if code := post(tc.path, body()+tail); code != http.StatusBadRequest {
				t.Errorf("%s: trailing %q status %d, want 400", tc.route, tail, code)
			}
		}
		over := body()
		over += strings.Repeat(" ", DefaultMaxBodyBytes+1-len(over))
		if code := post(tc.path, over); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: body over the cap status %d, want 413", tc.route, code)
		}
	}
}
