package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"stsmatch/internal/plr"
)

// seqFromStates builds a sequence with unit-spaced times and the given
// segment states.
func seqFromStates(states string) plr.Sequence {
	out := make(plr.Sequence, len(states))
	for i, ch := range []byte(states) {
		var st plr.State
		switch ch {
		case 'E':
			st = plr.EX
		case 'O':
			st = plr.EOE
		case 'I':
			st = plr.IN
		default:
			st = plr.IRR
		}
		out[i] = plr.Vertex{T: float64(i), Pos: []float64{float64(i % 5)}, State: st}
	}
	return out
}

func TestStreamAppendAndLen(t *testing.T) {
	st := NewStream("P1", "S1")
	if st.Len() != 0 {
		t.Fatal("new stream not empty")
	}
	if err := st.Append(seqFromStates("EOIEOI")...); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 6 {
		t.Errorf("Len = %d, want 6", st.Len())
	}
	if got := st.Seq().StateString(); got != "EOIEOI" {
		t.Errorf("StateString = %q", got)
	}
	// Non-advancing time rejected.
	if err := st.Append(plr.Vertex{T: 2, Pos: []float64{0}, State: plr.EX}); err == nil {
		t.Error("expected error for non-advancing vertex time")
	}
	// Invalid state rejected.
	if err := st.Append(plr.Vertex{T: 100, Pos: []float64{0}, State: plr.State(9)}); err == nil {
		t.Error("expected error for invalid state")
	}
}

func TestFindWindowsScan(t *testing.T) {
	st := NewStream("P1", "S1")
	if err := st.Append(seqFromStates("EOIEOIEOIE")...); err != nil {
		t.Fatal(err)
	}
	// Signature "EOI" needs 4 vertices; starts at 0, 3, 6 (6+3+1=10 ok).
	got := st.FindWindows("EOI")
	want := []int{0, 3, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FindWindows(EOI) = %v, want %v", got, want)
	}
	// Overlapping matches: "OIE" occurs at 1, 4; start 7 would need
	// vertex 11 which doesn't exist.
	got = st.FindWindows("OIE")
	want = []int{1, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FindWindows(OIE) = %v, want %v", got, want)
	}
	if got := st.FindWindows(""); got != nil {
		t.Errorf("empty signature should return nil, got %v", got)
	}
	if got := st.FindWindows("EOIEOIEOIEOI"); got != nil {
		t.Errorf("too-long signature should return nil, got %v", got)
	}
}

func TestFindWindowsShortSignatureFallback(t *testing.T) {
	// Signatures shorter than ngramSize cannot use the n-gram postings:
	// FindWindows walks the state string instead, and must find what a
	// per-start compare finds.
	const states = "EOIEOIEOIE"
	st := NewStream("P1", "S1")
	if err := st.Append(seqFromStates(states)...); err != nil {
		t.Fatal(err)
	}
	for _, sig := range []string{"E", "EO", "EOI"} {
		if len(sig) >= ngramSize {
			t.Fatalf("test signature %q not shorter than ngramSize %d", sig, ngramSize)
		}
		if v := st.ScanView(sig); v.Listed {
			t.Errorf("ScanView(%q) is listed; a signature shorter than a gram has no postings", sig)
		}
		if got, want := st.FindWindows(sig), naiveStarts(states, sig); !slices.Equal(got, want) {
			t.Errorf("FindWindows(%q) = %v, per-start compare gave %v", sig, got, want)
		}
	}
	// Known positions for the 3-segment signature: starts 0, 3, 6.
	if got := st.FindWindows("EOI"); !reflect.DeepEqual(got, []int{0, 3, 6}) {
		t.Errorf("FindWindows(EOI) = %v, want [0 3 6]", got)
	}
	// A signature at exactly ngramSize takes the postings on the same
	// stream.
	if got, want := st.FindWindows("EOIE"), []int{0, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("FindWindows(EOIE) = %v, want %v", got, want)
	}
}

// naiveStarts is FindWindows by a per-start compare: every start that
// leaves room for a window of len(sig)+1 vertices and spells sig.
func naiveStarts(states, sig string) []int {
	var out []int
	for _, j := range naiveWindows(states, sig, 0, len(states)-len(sig)) {
		out = append(out, int(j))
	}
	return out
}

// TestFreshStreamIsIndexed: a stream straight from AddStream, never
// asked for an index, walks the postings for a signature of a gram or
// more.
func TestFreshStreamIsIndexed(t *testing.T) {
	p, err := NewDB().AddPatient(PatientInfo{ID: "P"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S")
	if err := st.Append(seqFromStates("EOIEOIEOIR")...); err != nil {
		t.Fatal(err)
	}
	for _, sig := range []string{"EOIE", "OIEOI", "EOIEOIEOI"} {
		v := st.ScanView(sig)
		if !v.Listed {
			t.Fatalf("ScanView(%q) on a fresh stream is not listed", sig)
		}
		if want := naiveWindows("EOIEOIEOIR", sig[:ngramSize], 0, 10-ngramSize+1); !slices.Equal(v.Postings, want) {
			t.Errorf("ScanView(%q).Postings = %v, want the starts of %q: %v", sig, v.Postings, sig[:ngramSize], want)
		}
	}
}

// TestFindWindowsIndexMatchesScan: the postings walk (signatures of a
// gram or more) and the state-string walk (shorter ones) find exactly
// the windows a per-start compare finds, for signatures of 1 to 20
// states.
func TestFindWindowsIndexMatchesScan(t *testing.T) {
	letters := []byte("EOIR")
	rng := rand.New(rand.NewSource(5))
	f := func(n uint16, sigLen uint8) bool {
		length := int(n%300) + 22
		states := make([]byte, length)
		for i := range states {
			// Mostly regular rotation with occasional irregularity,
			// like real streams.
			if rng.Intn(10) == 0 {
				states[i] = 'R'
			} else {
				states[i] = letters[i%3]
			}
		}
		st := NewStream("P", "S")
		if err := st.Append(seqFromStates(string(states))...); err != nil {
			return false
		}
		sl := int(sigLen%20) + 1 // signatures of 1..20
		start := rng.Intn(length - sl)
		sig := string(states[start : start+sl])
		return slices.Equal(st.FindWindows(sig), naiveStarts(string(states), sig))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIndexStaysCurrentAcrossAppends: windows that appends complete are
// found, whether they straddle the batches or lie in the later one.
func TestIndexStaysCurrentAcrossAppends(t *testing.T) {
	const states = "EOIEOIRREOIEOIEOOIEOIEOIRE"
	st := NewStream("P", "S")
	for from, to := 0, 0; from < len(states); from = to {
		to = min(from+1+from%5, len(states))
		batch := seqFromStates(states[from:to])
		for i := range batch {
			batch[i].T += float64(from)
		}
		if err := st.Append(batch...); err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= 20 && l < to; l++ {
			for _, sig := range []string{states[to-l-1 : to-1], states[:l]} {
				if got, want := st.FindWindows(sig), naiveStarts(states[:to], sig); !slices.Equal(got, want) {
					t.Fatalf("after %d vertices FindWindows(%q) = %v, per-start compare gave %v", to, sig, got, want)
				}
			}
		}
	}
}

// TestIndexFreshAfterDBEnableIndexes guards the live-ingestion path: a
// stream opened through the database and appended to after preload has
// every later window in its postings.
func TestIndexFreshAfterDBEnableIndexes(t *testing.T) {
	db := NewDB()
	p, err := db.AddPatient(PatientInfo{ID: "P"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S")
	if err := st.Append(seqFromStates("EOIEOIEOI")...); err != nil {
		t.Fatal(err)
	}
	// Append a suffix whose signature appears nowhere in the prefix.
	more := seqFromStates("EEOOI")
	for i := range more {
		more[i].T += 9
	}
	if err := st.Append(more...); err != nil {
		t.Fatal(err)
	}
	got := st.FindWindows("EEOO") // needs vertices 9..13: only in the suffix
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("FindWindows after a post-preload append = %v, want [9]", got)
	}
	const states = "EOIEOIEOIEEOOI"
	for l := 1; l <= len(states)-1; l++ {
		for j := 0; j+l < len(states); j++ {
			sig := states[j : j+l]
			if got, want := st.FindWindows(sig), naiveStarts(states, sig); !slices.Equal(got, want) {
				t.Errorf("FindWindows(%q) = %v, per-start compare gave %v", sig, got, want)
			}
		}
	}
}

func TestDBPatients(t *testing.T) {
	db := NewDB()
	p1, err := db.AddPatient(PatientInfo{ID: "P1", Class: "calm"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddPatient(PatientInfo{ID: "P1"}); !errors.Is(err, ErrDuplicatePatient) {
		t.Errorf("duplicate error = %v", err)
	}
	if _, err := db.AddPatient(PatientInfo{}); err == nil {
		t.Error("empty ID should be rejected")
	}
	if db.Patient("P1") != p1 {
		t.Error("Patient lookup failed")
	}
	if db.Patient("missing") != nil {
		t.Error("missing patient should be nil")
	}
	if db.NumPatients() != 1 {
		t.Errorf("NumPatients = %d", db.NumPatients())
	}

	s1 := p1.AddStream("S1")
	s2 := p1.AddStream("S2")
	if p1.StreamBySession("S2") != s2 {
		t.Error("StreamBySession failed")
	}
	if p1.StreamBySession("nope") != nil {
		t.Error("missing session should be nil")
	}
	if err := s1.Append(seqFromStates("EOI")...); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(seqFromStates("EOIE")...); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Streams()); got != 2 {
		t.Errorf("Streams = %d, want 2", got)
	}
	if db.NumVertices() != 7 {
		t.Errorf("NumVertices = %d, want 7", db.NumVertices())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := NewDB()
	p, _ := db.AddPatient(PatientInfo{ID: "P1", Class: "deep", Age: 61, TumorSite: "lower-lobe"})
	st := p.AddStream("P1-S01")
	seq := seqFromStates("EOIEOIR")
	for i := range seq {
		seq[i].Pos = []float64{float64(i) * 1.5, -float64(i)}
	}
	if err := st.Append(seq...); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2 := back.Patient("P1")
	if p2 == nil {
		t.Fatal("patient lost in round trip")
	}
	if p2.Info != p.Info {
		t.Errorf("info mismatch: %+v vs %+v", p2.Info, p.Info)
	}
	s2 := p2.StreamBySession("P1-S01")
	if s2 == nil {
		t.Fatal("stream lost")
	}
	got, want := s2.Seq(), st.Seq()
	if len(got) != len(want) {
		t.Fatalf("vertex count %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].T != want[i].T || got[i].State != want[i].State ||
			!reflect.DeepEqual(got[i].Pos, want[i].Pos) {
			t.Errorf("vertex %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nonsense")); err == nil {
		t.Error("expected decode error")
	}
	bad := `{"patients":[{"info":{"id":"P1"},"streams":[{"sessionId":"s","vertices":[{"t":0,"pos":[1],"state":"WAT"}]}]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("expected state parse error")
	}
}

func TestStreamConcurrentReadsDuringAppend(t *testing.T) {
	st := NewStream("P", "S")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			v := plr.Vertex{T: float64(i), Pos: []float64{0}, State: plr.State(i % 3)}
			if err := st.Append(v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			st.FindWindows("EOI")
			st.Len()
		}
	}()
	wg.Wait()
	if st.Len() != 500 {
		t.Errorf("Len = %d, want 500", st.Len())
	}
}

// TestStreamsDuringAddStream: a search lists the streams (AppendStreams)
// under no lock but the DB's, while a server opens sessions under its
// own; under -race this fails unless AddStream takes the DB's lock. Two
// listings equally long are the same list, even while streams are
// inserted ahead of others (the first patient's): what a matcher's kept
// top-k answers rely on.
func TestStreamsDuringAddStream(t *testing.T) {
	db := NewDB()
	var ps [2]*Patient
	for i := range ps {
		var err error
		if ps[i], err = db.AddPatient(PatientInfo{ID: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ps[i%2].AddStream(strconv.Itoa(i))
		}
	}()
	go func() {
		defer wg.Done()
		byLen := map[int][]*Stream{}
		for i := 0; i < n; i++ {
			list := db.Streams()
			for _, st := range list {
				st.Len()
			}
			if seen, ok := byLen[len(list)]; ok && !slices.Equal(seen, list) {
				t.Errorf("two listings of %d streams differ", len(list))
			}
			byLen[len(list)] = list
		}
	}()
	wg.Wait()
	if got := len(db.Streams()); got != n {
		t.Errorf("%d streams, want %d", got, n)
	}
}

func TestMutationHookObservesAllKinds(t *testing.T) {
	db := NewDB()
	var got []Mutation
	db.AddMutationHook(func(m Mutation) {
		// Vertices alias the caller's slice only for the call; copy.
		m.Vertices = append([]plr.Vertex(nil), m.Vertices...)
		got = append(got, m)
	})

	p, err := db.AddPatient(PatientInfo{ID: "P1", Class: "calm"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S1")
	if err := st.Append(seqFromStates("EOI")...); err != nil {
		t.Fatal(err)
	}

	want := []MutationKind{MutPatientUpsert, MutStreamOpen, MutVertexAppend}
	if len(got) != len(want) {
		t.Fatalf("observed %d mutations, want %d: %+v", len(got), len(want), got)
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Errorf("mutation %d kind = %d, want %d", i, got[i].Kind, k)
		}
	}
	if got[0].Patient.ID != "P1" || got[0].Patient.Class != "calm" {
		t.Errorf("upsert payload = %+v", got[0].Patient)
	}
	if got[1].PatientID != "P1" || got[1].SessionID != "S1" {
		t.Errorf("stream-open payload = %+v", got[1])
	}
	if len(got[2].Vertices) != 3 {
		t.Errorf("vertex-append carried %d vertices, want 3", len(got[2].Vertices))
	}
}

func TestMutationHookCoversPreexistingStreams(t *testing.T) {
	// Installing the hook after recovery must still observe appends to
	// streams created before installation.
	db := NewDB()
	p, err := db.AddPatient(PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S1")

	var kinds []MutationKind
	db.AddMutationHook(func(m Mutation) { kinds = append(kinds, m.Kind) })
	if err := st.Append(seqFromStates("E")...); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != MutVertexAppend {
		t.Errorf("kinds = %v, want [MutVertexAppend]", kinds)
	}
}

func TestMutationHookReportsPartialAppend(t *testing.T) {
	// A batch that fails mid-way must still journal the prefix that
	// landed, because the stream state advanced by exactly that prefix.
	// A vertex is refused when its time does not advance, when its time
	// or a coordinate is not finite (NaN <= t is false, so the time-order
	// check alone lets a NaN time in), or when it has another
	// dimensionality than the stream (the first vertex fixes it).
	nan, inf := math.NaN(), math.Inf(1)
	for name, bad := range map[string]plr.Vertex{
		"time does not advance": {T: 2, Pos: []float64{0, 0}, State: plr.IN},
		"NaN time":              {T: nan, Pos: []float64{0, 0}, State: plr.IN},
		"infinite time":         {T: inf, Pos: []float64{0, 0}, State: plr.IN},
		"NaN coordinate":        {T: 3, Pos: []float64{nan, 0}, State: plr.IN},
		"infinite coordinate":   {T: 3, Pos: []float64{0, -inf}, State: plr.IN},
		"no position":           {T: 3, State: plr.IN},
		"one dimension short":   {T: 3, Pos: []float64{0}, State: plr.IN},
		"one dimension over":    {T: 3, Pos: []float64{0, 0, 0}, State: plr.IN},
	} {
		db := NewDB()
		p, err := db.AddPatient(PatientInfo{ID: "P1"})
		if err != nil {
			t.Fatal(err)
		}
		st := p.AddStream("S1")
		var appended int
		db.AddMutationHook(func(m Mutation) {
			if m.Kind == MutVertexAppend {
				appended += len(m.Vertices)
			}
		})
		batch := plr.Sequence{
			{T: 1, Pos: []float64{0, 0}, State: plr.EX},
			{T: 2, Pos: []float64{0, 0}, State: plr.EOE},
			bad,
			{T: 4, Pos: []float64{0, 0}, State: plr.EX},
		}
		if err := st.Append(batch...); err == nil {
			t.Fatalf("%s: expected mid-batch append error", name)
		}
		if appended != 2 {
			t.Errorf("%s: hook saw %d appended vertices, want the 2 that landed", name, appended)
		}
		if st.Len() != 2 {
			t.Errorf("%s: stream holds %d vertices, want 2", name, st.Len())
		}
		// A first vertex has no time to advance past and no dimensionality
		// to differ from; it must still be finite.
		if err := NewStream("P", "S").Append(bad); finite(bad.T, bad.Pos) != (err == nil) {
			t.Errorf("%s: as a stream's first vertex: %v", name, err)
		}
	}
}

func TestSnapshotPrefixSums(t *testing.T) {
	// The incrementally maintained displacement-norm prefix sums must
	// match a from-scratch recomputation bitwise (same op order), and
	// window sums derived from them must agree with direct summation.
	rng := rand.New(rand.NewSource(17))
	st := NewStream("P", "S")
	var appended plr.Sequence
	tNow := 0.0
	for batch := 0; batch < 5; batch++ {
		var vs plr.Sequence
		for i := 0; i < 1+rng.Intn(20); i++ {
			tNow += 0.1 + rng.Float64()
			vs = append(vs, plr.Vertex{
				T:     tNow,
				Pos:   []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 3},
				State: plr.State(rng.Intn(3)),
			})
		}
		if err := st.Append(vs...); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, vs...)

		seq, sums := st.Snapshot()
		if len(seq) != len(appended) || len(sums) != len(seq) {
			t.Fatalf("snapshot lengths: seq %d (want %d), sums %d", len(seq), len(appended), len(sums))
		}
		want := 0.0
		for i := range seq {
			if i > 0 {
				want += dispNorm(seq[i-1].Pos, seq[i].Pos)
			}
			if sums[i] != want {
				t.Fatalf("sums[%d] = %v, want %v", i, sums[i], want)
			}
		}
	}

	// O(1) window sums equal the direct per-segment summation.
	seq, sums := st.Snapshot()
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(len(seq)-2)
		j := rng.Intn(len(seq) - n + 1)
		direct := 0.0
		for i := j; i < j+n-1; i++ {
			direct += dispNorm(seq[i].Pos, seq[i+1].Pos)
		}
		got := sums[j+n-1] - sums[j]
		if diff := got - direct; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("window [%d,%d): prefix sum %v != direct %v", j, j+n, got, direct)
		}
	}
}

func TestSnapshotPartialBatchKeepsSumsConsistent(t *testing.T) {
	// A mid-batch append error must leave the prefix sums aligned with the
	// vertices that actually landed.
	st := NewStream("P", "S")
	good := seqFromStates("EOI")
	bad := plr.Vertex{T: 1.5, Pos: []float64{0}, State: plr.EX} // time regresses
	if err := st.Append(append(good.Clone(), bad)...); err == nil {
		t.Fatal("expected mid-batch time-order error")
	}
	seq, sums := st.Snapshot()
	if len(seq) != 3 || len(sums) != 3 {
		t.Fatalf("after partial batch: %d vertices, %d sums (want 3, 3)", len(seq), len(sums))
	}
}

// TestFindWindowsShortSignatureAllocs is the regression test for the
// state-string copy: a lookup that takes the scan path (a signature
// shorter than an n-gram) used to copy the whole state string into a
// fresh Go string per call. Its allocations are the result slice's
// growth and nothing that scales with the stream.
func TestFindWindowsShortSignatureAllocs(t *testing.T) {
	st := NewStream("P", "S")
	if err := st.Append(seqFromStates(strings.Repeat("EOI", 3334)[:10000])...); err != nil {
		t.Fatal(err)
	}
	tail := seqFromStates("RRE") // one window of two irregular segments
	for i := range tail {
		tail[i].T += 1e6
	}
	if err := st.Append(tail...); err != nil {
		t.Fatal(err)
	}
	var got []int
	allocs := testing.AllocsPerRun(20, func() { got = st.FindWindows("RR") })
	if len(got) != 1 || got[0] != 10000 {
		t.Fatalf("FindWindows(RR) = %v, want [10000]", got)
	}
	if allocs > 1 {
		t.Errorf("a one-hit short-signature lookup allocates %v times on a 10k-vertex stream, want 1 (the result)", allocs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st.FindWindows("RR")
	runtime.ReadMemStats(&ms1)
	if b := ms1.TotalAlloc - ms0.TotalAlloc; b >= 1000 {
		t.Errorf("the lookup allocated %d bytes; the 10 KB state string must not be copied", b)
	}
}

// TestScanViewConsistentUnderAppend (run under -race): while a writer
// appends, every view a reader takes is self-consistent — equally long
// columns, state bytes that spell the vertices' states, and window
// starts, straight from the postings, that all lie inside the view and
// carry the signature.
func TestScanViewConsistentUnderAppend(t *testing.T) {
	const total, sig = 3000, "EOIEOI"
	st := NewStream("P", "S")
	full := seqFromStates(strings.Repeat("EOIEOIRE", total/8))

	var (
		wg    sync.WaitGroup
		views atomic.Int64
	)
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int32, 64)
			for ; ; views.Add(1) {
				select {
				case <-done:
					return
				default:
				}
				v := st.ScanView(sig)
				if !v.Listed || len(v.Amps) != v.Len() || len(v.States) != v.Len() || len(v.Pos) != v.Len()*v.Dims {
					t.Errorf("view: listed=%v, %d vertices, %d sums, %d states, %d coordinates", v.Listed, v.Len(), len(v.Amps), len(v.States), len(v.Pos))
					return
				}
				for _, p := range v.Postings {
					if int(p)+ngramSize > len(v.States) {
						t.Errorf("posting %d lies beyond the view's %d states", p, len(v.States))
						return
					}
				}
				found := 0
				for from, to := 0, v.Len()-len(sig); from < to; {
					var blk []int32
					blk, from = v.AppendWindows(buf[:0], sig, from, to)
					for _, j := range blk {
						found++
						for k := 0; k < len(sig); k++ {
							if v.Vertex(int(j)+k).State.Byte() != sig[k] || v.States[int(j)+k] != sig[k] {
								t.Errorf("window %d of a %d-vertex view does not spell %s", j, v.Len(), sig)
								return
							}
						}
					}
				}
				if want := strings.Count(string(v.States[:max(v.Len()-1, 0)]), sig); found != want {
					t.Errorf("%d-vertex view: %d windows, the state string has %d", v.Len(), found, want)
					return
				}
			}
		}()
	}
	for i := 0; i < len(full); i += 3 {
		if err := st.Append(full[i:min(i+3, len(full))]...); err != nil {
			t.Fatal(err)
		}
		// Every hundredth append waits for a view taken after it, so the
		// readers see the stream at many lengths.
		for seen := views.Load(); i%300 == 0 && views.Load() <= seen+3 && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
}

// TestSeqMemoExtends (run under -race): Seq materialises a stream on the
// first request and extends that on later ones — a stream nobody asked
// holds no memo, a slice handed out before an append reads the same after
// it, the next call has the new vertices — and readers calling it while a
// writer appends each see a whole prefix of what was appended.
func TestSeqMemoExtends(t *testing.T) {
	full := seqFromStates(strings.Repeat("EOIEOIRE", 60))
	st := NewStream("P", "S")
	if err := st.Append(full[:10]...); err != nil {
		t.Fatal(err)
	}
	if st.ScanView("EOI"); st.Window(2, 4) == nil || st.memo != nil {
		t.Fatal("reading columns left a memo behind")
	}
	before := st.Seq()
	if !reflect.DeepEqual(before, full[:10]) || len(st.memo) != 10 {
		t.Fatalf("first Seq() = %v (memo of %d)", before, len(st.memo))
	}
	if err := st.Append(full[10:15]...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, full[:10]) {
		t.Errorf("a sequence handed out before an append reads %v after it", before)
	}
	if after := st.Seq(); !reflect.DeepEqual(after, full[:15]) {
		t.Errorf("Seq() after the append = %v", after)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seq, sums := st.Snapshot()
				if len(seq) < 15 || len(sums) != len(seq) || !reflect.DeepEqual(seq[len(seq)-5:], full[len(seq)-5:len(seq)]) {
					t.Errorf("concurrent Snapshot(): %d vertices, %d sums, tail %v", len(seq), len(sums), seq[max(len(seq)-5, 0):])
					return
				}
			}
		}()
	}
	for i := 15; i < len(full); i += 7 {
		if err := st.Append(full[i:min(i+7, len(full))]...); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if got := st.Seq(); !reflect.DeepEqual(got, full) {
		t.Error("the stream's final Seq() differs from what was appended")
	}
}

// TestAppendCopiesPositions: a stored vertex owns its position — the
// stream copies it into its position column, where a window's positions
// are adjacent — so a caller reusing its slice cannot corrupt the stream.
func TestAppendCopiesPositions(t *testing.T) {
	st := NewStream("P", "S")
	batch := seqFromStates("EOIEOI")
	if err := st.Append(batch...); err != nil {
		t.Fatal(err)
	}
	one := plr.Vertex{T: 100, Pos: []float64{42}, State: plr.EX}
	if err := st.Append(one); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		batch[i].Pos[0] = -1
	}
	one.Pos[0] = -1
	seq := st.Seq()
	for i, v := range seq[:6] {
		if v.Pos[0] != float64(i%5) {
			t.Errorf("vertex %d position = %v after the caller reused its slice, want %v", i, v.Pos[0], i%5)
		}
		if i > 0 && reflect.ValueOf(v.Pos).Pointer() != reflect.ValueOf(seq[i-1].Pos).Pointer()+8 {
			t.Errorf("vertex %d's position is not adjacent to its predecessor's", i)
		}
	}
	if seq[6].Pos[0] != 42 || len(seq[6].Pos) != 1 || cap(seq[6].Pos) != 1 {
		t.Errorf("appended vertex position = %v (cap %d), want [42] with no spare capacity", seq[6].Pos, cap(seq[6].Pos))
	}
}

// naiveWindows is the byte-by-byte reference for AppendWindows: the
// starts in [from, to) whose next len(sig) states spell sig.
func naiveWindows(states, sig string, from, to int) []int32 {
	var out []int32
	for j := max(from, 0); j < to; j++ {
		same := true
		for k := 0; k < len(sig); k++ {
			same = same && states[j+k] == sig[k]
		}
		if same {
			out = append(out, int32(j))
		}
	}
	return out
}

// checkAppendWindows holds AppendWindows to naiveWindows over a stream
// with the given states, walked in blocks of 1, 3 and 256 starts from
// the stream's head and from inside it, and once more on the same view
// after its cursor has run to the end.
func checkAppendWindows(t *testing.T, states, sig string) {
	t.Helper()
	to := len(states) - len(sig)
	st := NewStream("P", "S")
	if err := st.Append(seqFromStates(states)...); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []int{1, 3, 256} {
		v := st.ScanView(sig)
		for _, from := range []int{0, to / 3, 0} {
			var got []int32
			buf := make([]int32, blk)
			for at := from; at < to; {
				b, next := v.AppendWindows(buf[:0], sig, at, to)
				if next <= at || next > to {
					t.Fatalf("%q in %q (block %d): resume point %d after %d", sig, states, blk, next, at)
				}
				got, at = append(got, b...), next
			}
			if want := naiveWindows(states, sig, from, to); !slices.Equal(got, want) {
				t.Fatalf("%q in %q (block %d, from %d):\n got %v\nwant %v", sig, states, blk, from, got, want)
			}
		}
	}
}

// TestAppendWindowsWordCompareEqualsNaive: the word-at-a-time state
// compare and the postings cursor find exactly the windows a byte loop
// finds — for every signature length either side of the 8- and 16-state
// word boundaries, in streams shorter than a word, for a window ending on
// the stream's last vertex, for near misses in each byte of the
// signature, and when a walk resumes across blocks.
func TestAppendWindowsWordCompareEqualsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 5, 7, 8, 9, 12, 16, 17, 18, 21, 24, 40, 300} {
		b := make([]byte, n)
		for i := range b {
			b[i] = "EOI"[i%3]
			if rng.Intn(10) == 0 {
				b[i] = 'R'
			}
		}
		states := string(b)
		for l := 1; l <= 20 && l < n; l++ {
			// The signature of the stream's last window, which must be
			// found, and of one from its middle.
			tail := states[n-l-1 : n-1]
			checkAppendWindows(t, states, tail)
			st := NewStream("P", "S")
			if err := st.Append(seqFromStates(states)...); err != nil {
				t.Fatal(err)
			}
			if ws := st.FindWindows(tail); len(ws) == 0 || ws[len(ws)-1] != n-l-1 {
				t.Fatalf("%q in %q: windows %v miss the one ending on the last vertex", tail, states, ws)
			}
			mid := (n - l) / 2
			checkAppendWindows(t, states, states[mid:mid+l])
			// Near misses: the stream's own signature with one state
			// changed, at every position.
			for k := 0; k < l; k++ {
				miss := []byte(states[mid : mid+l])
				miss[k] = "EOIR"[(strings.IndexByte("EOIR", miss[k])+1)%4]
				checkAppendWindows(t, states, string(miss))
			}
		}
	}
}
