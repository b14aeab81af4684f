package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.90, 9}, {0.01, 1}, {1, 10}, {0, 1}} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := iqrShare([]float64{3}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
	if got := worstPair([]float64{100, 110, 105}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("worstPair = %v, want 0.10", got)
	}
}

// Two clients, three rounds: the best latency of an op is the fastest
// of its replays (a failed replay is skipped), and the closed-loop rate
// is ops over the slower client's sum of best stretches.
func TestBestOfRounds(t *testing.T) {
	in := &inputs{ops: [][]op{
		{{kind: opQuery}, {kind: opIngest}, {kind: opQuery}},
		{{kind: opPredict}, {kind: opQuery}},
	}}
	nan := math.NaN()
	mk := func(lat0, lat1 []float64) roundResult {
		r := roundResult{lat: [][]float64{lat0, lat1}, end: make([][]float64, 2)}
		for c, lat := range r.lat {
			sum := 0.0
			for _, v := range lat {
				if !math.IsNaN(v) {
					sum += v
				}
				sum++ // one microsecond of bookkeeping per op
				r.end[c] = append(r.end[c], sum)
			}
		}
		return r
	}
	rounds := []roundResult{
		mk([]float64{30, 5, 50}, []float64{200, 40}),
		mk([]float64{20, 9, nan}, []float64{100, 60}),
		mk([]float64{25, 4, 45}, []float64{150, 35}),
	}
	best := bestLatencies(in, rounds)
	want := [numKinds][]float64{opQuery: {20, 35, 45}, opPredict: {100}, opIngest: {4}}
	for k := range want {
		if len(best[k]) != len(want[k]) {
			t.Fatalf("%s: best = %v, want %v", kindNames[k], best[k], want[k])
		}
		for i := range want[k] {
			if best[k][i] != want[k][i] {
				t.Errorf("%s: best = %v, want %v", kindNames[k], best[k], want[k])
			}
		}
	}
	// Both lists are shorter than one stretch, so a client's loop is its
	// fastest whole replay: client 0: min(88, 32, 77), client 1:
	// min(242, 162, 187) -> 5 ops in 162 us.
	if got, want := stretchRate(in, rounds), 5/162e-6; math.Abs(got-want) > 1e-6 {
		t.Errorf("stretchRate = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, Dur: 30},  // 10..40
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, Dur: 30},  // 30..60 overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, Dur: 30},  // 90..120 clipped to 100
		{ID: 5, Parent: 2, Op: 1, Name: "a1", Start: 15, Dur: 5},  // inside a
		{ID: 6, Op: 2, Name: "op", Start: 200, Dur: 10},           // no children
		{ID: 7, Parent: 6, Op: 2, Name: "a", Start: 150, Dur: 10}, // outside its parent
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5, 6: 10, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	total, count := selfByName(spans)
	if total["op"] != 50 || count["op"] != 2 || total["a"] != 35 || count["a"] != 2 {
		t.Errorf("selfByName: op %v/%d, a %v/%d", total["op"], count["op"], total["a"], count["a"])
	}
}

func TestSchedule(t *testing.T) {
	want := [numKinds]int{opQuery: 128, opPredict: 28, opIngest: 128}
	kinds := schedule(want[opQuery], want[opPredict], want[opIngest])
	total := len(kinds)
	var done [numKinds]int
	for i, k := range kinds {
		done[k]++
		// Every prefix holds each kind's share to within one op.
		for kk, n := range done {
			if share := float64(want[kk]*(i+1)) / float64(total); math.Abs(float64(n)-share) > 1 {
				t.Fatalf("after %d ops: %d %s, share is %.2f", i+1, n, kindNames[kk], share)
			}
		}
	}
	if done != want {
		t.Errorf("schedule has %v ops by kind, want %v", done, want)
	}
}

// The pool's make-up and the ops' kinds are the same for every seed;
// the windows, the streams and the order queries are asked in are not.
func TestGenerator(t *testing.T) {
	spec, err := findWorkload("cluster")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.smoke()
	gen := func(seed int64) *inputs {
		in, err := genInputs(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a.hash() != b.hash() {
		t.Errorf("same seed, different inputs: %x vs %x", a.hash(), b.hash())
	}
	if a.hash() == c.hash() {
		t.Errorf("different seeds, same inputs: %x", a.hash())
	}
	for _, in := range []*inputs{a, c} {
		if len(in.pool) != queryPool || len(in.order) != queryPool {
			t.Fatalf("pool of %d windows asked in an order of %d, want %d", len(in.pool), len(in.order), queryPool)
		}
		for j, qw := range in.pool {
			corpus, _, _ := slotShape(j)
			if len(qw.seq) != queryLen || !fits(qw.seq, 0, j) || corpus != (qw.pid != "") {
				t.Errorf("pool slot %d: %d vertices, states %s, patient %q: not the slot's shape", j, len(qw.seq), qw.seq.StateString(), qw.pid)
			}
		}
		seen := make(map[int]bool)
		for i, j := range in.order {
			seen[j] = true
			if j/poolBlock != in.order[i/poolBlock*poolBlock]/poolBlock {
				t.Errorf("order[%d] = %d leaves the block its group of %d began", i, j, poolBlock)
			}
		}
		if len(seen) != queryPool {
			t.Errorf("order visits %d of %d slots", len(seen), queryPool)
		}
		for cl := range in.ops {
			for i, o := range in.ops[cl] {
				if o.kind != a.ops[cl][i].kind {
					t.Fatalf("client %d op %d is a %s here and a %s under seed 7", cl, i, kindNames[o.kind], kindNames[a.ops[cl][i].kind])
				}
			}
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload for one short round, untraced and
// traced, and holds the output to BENCHMARK.json: every declared
// metric printed exactly once per workload with the declared unit, no
// failed operation, and a last line that parses as the result object.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	tmp, out := t.TempDir(), t.TempDir()
	for _, tc := range []struct {
		trace int
		want  []struct{ Name, Unit string }
	}{{0, decl.EndToEnd}, {1, decl.PerLayer}} {
		var buf bytes.Buffer
		if err := run(options{seed: 3, seconds: refSeconds, trace: tc.trace, smoke: true, tmp: tmp, out: out}, &buf); err != nil {
			t.Fatalf("trace=%d: %v\n%s", tc.trace, err, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace=%d: last line is not the result object: %v\n%s", tc.trace, err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%d: correct=%v attempted=%d failed=%d\n%s", tc.trace, res.Correct, res.Attempted, res.Failed, buf.String())
		}
		printed := make(map[string]int)
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) > 0 && !strings.HasPrefix(l, "#") {
				printed[f[0]]++
			}
		}
		for _, wl := range decl.Workloads {
			for _, m := range tc.want {
				key := wl.Name + "/" + m.Name
				if printed[key] != 1 {
					t.Errorf("trace=%d: %s printed %d times, want once", tc.trace, key, printed[key])
				}
				got, ok := res.Metrics[key]
				if !ok || got.Unit != m.Unit {
					t.Errorf("trace=%d: %s in result = %+v (present=%v), want unit %q", tc.trace, key, got, ok, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("trace=%d: %s = %v", tc.trace, key, got.Value)
				}
			}
		}
		if want := len(decl.Workloads) * len(tc.want); len(res.Metrics) != want {
			t.Errorf("trace=%d: result has %d metrics, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), want)
		}
	}
}
