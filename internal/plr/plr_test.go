package plr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// seq1D builds a 1-D sequence from (t, y, state) triples.
func seq1D(vs ...struct {
	t, y float64
	st   State
}) Sequence {
	out := make(Sequence, len(vs))
	for i, v := range vs {
		out[i] = Vertex{T: v.t, Pos: []float64{v.y}, State: v.st}
	}
	return out
}

// regularSeq builds n vertices of a regular EX->EOE->IN pattern
// starting at t=0 with unit durations and a simple triangle amplitude.
func regularSeq(n int) Sequence {
	states := []State{EX, EOE, IN}
	ys := []float64{10, 0, 0} // EX falls 10->0, EOE flat, IN rises 0->10
	out := make(Sequence, n)
	for i := 0; i < n; i++ {
		out[i] = Vertex{T: float64(i), Pos: []float64{ys[i%3]}, State: states[i%3]}
	}
	return out
}

func TestStateString(t *testing.T) {
	cases := []struct {
		s    State
		name string
		b    byte
	}{
		{EX, "EX", 'E'}, {EOE, "EOE", 'O'}, {IN, "IN", 'I'}, {IRR, "IRR", 'R'},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String(%d) = %q, want %q", c.s, c.s.String(), c.name)
		}
		if c.s.Byte() != c.b {
			t.Errorf("Byte(%s) = %c, want %c", c.name, c.s.Byte(), c.b)
		}
		parsed, err := ParseState(c.name)
		if err != nil || parsed != c.s {
			t.Errorf("ParseState(%q) = %v, %v", c.name, parsed, err)
		}
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Error("expected error for unknown state name")
	}
	if State(9).Valid() {
		t.Error("State(9) should be invalid")
	}
	if got := State(9).String(); got != "State(9)" {
		t.Errorf("invalid state String = %q", got)
	}
}

func TestNextRegular(t *testing.T) {
	if EX.NextRegular() != EOE || EOE.NextRegular() != IN || IN.NextRegular() != EX {
		t.Error("regular cycle order broken")
	}
	if IRR.NextRegular() != IRR {
		t.Error("IRR.NextRegular should be IRR")
	}
	if !EX.Regular() || !EOE.Regular() || !IN.Regular() || IRR.Regular() {
		t.Error("Regular() misclassifies")
	}
}

func TestValidate(t *testing.T) {
	good := regularSeq(6)
	if err := good.Validate(); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	if err := (Sequence{}).Validate(); err != nil {
		t.Errorf("empty sequence rejected: %v", err)
	}

	bad := regularSeq(3)
	bad[2].T = bad[1].T // duplicate time
	if err := bad.Validate(); !errors.Is(err, ErrTimeOrder) {
		t.Errorf("want ErrTimeOrder, got %v", err)
	}

	bad = regularSeq(3)
	bad[1].Pos = []float64{1, 2} // dimension change
	if err := bad.Validate(); !errors.Is(err, ErrDims) {
		t.Errorf("want ErrDims, got %v", err)
	}

	bad = regularSeq(3)
	bad[0].State = State(7)
	if err := bad.Validate(); !errors.Is(err, ErrState) {
		t.Errorf("want ErrState, got %v", err)
	}
}

func TestSegmentsAndSignature(t *testing.T) {
	s := regularSeq(4) // EX, EOE, IN, EX -> 3 segments
	if s.NumSegments() != 3 {
		t.Fatalf("NumSegments = %d, want 3", s.NumSegments())
	}
	if got := s.StateSignature(); got != "EOI" {
		t.Errorf("StateSignature = %q, want EOI", got)
	}
	if got := s.StateString(); got != "EOIE" {
		t.Errorf("StateString = %q, want EOIE", got)
	}
	seg := s.SegmentAt(0)
	if seg.State != EX || seg.Duration != 1 {
		t.Errorf("segment 0 = %+v", seg)
	}
	if !almostEqual(seg.Amplitude(), 10, 1e-12) {
		t.Errorf("segment 0 amplitude = %v, want 10", seg.Amplitude())
	}
	segs := s.Segments()
	if len(segs) != 3 || segs[2].State != IN {
		t.Errorf("Segments = %+v", segs)
	}
	if (Sequence{}).NumSegments() != 0 {
		t.Error("empty NumSegments should be 0")
	}
}

func TestDurationAndDims(t *testing.T) {
	s := regularSeq(5)
	if s.Duration() != 4 {
		t.Errorf("Duration = %v, want 4", s.Duration())
	}
	if s.Dims() != 1 {
		t.Errorf("Dims = %d, want 1", s.Dims())
	}
	if (Sequence{}).Duration() != 0 || (Sequence{}).Dims() != 0 {
		t.Error("empty sequence duration/dims should be 0")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := regularSeq(3)
	c := s.Clone()
	c[0].Pos[0] = 999
	c[1].T = 42
	if s[0].Pos[0] == 999 || s[1].T == 42 {
		t.Error("Clone shares state with original")
	}
}

func TestPositionAtInterpolation(t *testing.T) {
	s := seq1D(
		struct {
			t, y float64
			st   State
		}{0, 0, EX},
		struct {
			t, y float64
			st   State
		}{2, 10, EOE},
		struct {
			t, y float64
			st   State
		}{4, 10, IN},
	)
	pos, inside := s.PositionAt(1)
	if !inside || !almostEqual(pos[0], 5, 1e-12) {
		t.Errorf("PositionAt(1) = %v inside=%v, want 5 true", pos, inside)
	}
	pos, inside = s.PositionAt(3)
	if !inside || !almostEqual(pos[0], 10, 1e-12) {
		t.Errorf("PositionAt(3) = %v, want 10", pos)
	}
	// Exact vertex times.
	pos, inside = s.PositionAt(0)
	if !inside || pos[0] != 0 {
		t.Errorf("PositionAt(0) = %v inside=%v", pos, inside)
	}
	pos, inside = s.PositionAt(4)
	if !inside || pos[0] != 10 {
		t.Errorf("PositionAt(4) = %v inside=%v", pos, inside)
	}
	// Clamping outside the range.
	pos, inside = s.PositionAt(-1)
	if inside || pos[0] != 0 {
		t.Errorf("PositionAt(-1) = %v inside=%v, want clamp to 0, false", pos, inside)
	}
	pos, inside = s.PositionAt(99)
	if inside || pos[0] != 10 {
		t.Errorf("PositionAt(99) = %v inside=%v, want clamp to 10, false", pos, inside)
	}
	// Empty sequence.
	if p, ok := (Sequence{}).PositionAt(0); p != nil || ok {
		t.Error("empty PositionAt should be nil, false")
	}
}

// Property: interpolated positions lie within the bounding box of the
// two neighbouring vertices.
func TestPositionAtBoundedProperty(t *testing.T) {
	f := func(raw []float64, frac float64) bool {
		if len(raw) < 2 {
			return true
		}
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			frac = 0.5
		}
		frac = math.Abs(frac)
		frac -= math.Floor(frac)
		s := make(Sequence, len(raw))
		for i, y := range raw {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = 0
			}
			s[i] = Vertex{T: float64(i), Pos: []float64{y}, State: EX}
		}
		// Pick a random inner time.
		tq := frac * s[len(s)-1].T
		pos, _ := s.PositionAt(tq)
		i := s.IndexAtTime(tq)
		if i < 0 {
			i = 0
		}
		j := i + 1
		if j >= len(s) {
			j = i
		}
		lo := math.Min(s[i].Pos[0], s[j].Pos[0])
		hi := math.Max(s[i].Pos[0], s[j].Pos[0])
		return pos[0] >= lo-1e-9 && pos[0] <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIndexAtTime(t *testing.T) {
	s := regularSeq(5) // times 0..4
	cases := []struct {
		t    float64
		want int
	}{
		{-0.5, -1}, {0, 0}, {0.5, 0}, {1, 1}, {3.9, 3}, {4, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := s.IndexAtTime(c.t); got != c.want {
			t.Errorf("IndexAtTime(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if (Sequence{}).IndexAtTime(1) != -1 {
		t.Error("empty IndexAtTime should be -1")
	}
}

func TestCycleCount(t *testing.T) {
	cases := []struct {
		states []State
		want   int
	}{
		{[]State{EX, EOE, IN, EX}, 1},                   // one full cycle (3 segments) + trailing vertex
		{[]State{EX, EOE, IN, EX, EOE, IN, EX}, 2},      // two cycles
		{[]State{EOE, IN, EX, EOE, IN, EX}, 1},          // starts mid-cycle: only one full EX..IN run
		{[]State{EX, EOE, IN, IRR, EX, EOE, IN, EX}, 2}, // IRR interrupts, then a clean cycle
		{[]State{EX, EX, EOE, IN, EX}, 1},               // restart at second EX
		{[]State{IRR, IRR, IRR}, 0},
	}
	for i, c := range cases {
		s := make(Sequence, len(c.states))
		for j, st := range c.states {
			s[j] = Vertex{T: float64(j), Pos: []float64{0}, State: st}
		}
		if got := s.CycleCount(); got != c.want {
			t.Errorf("case %d (%v): CycleCount = %d, want %d", i, c.states, got, c.want)
		}
	}
}

func TestNormAndDist(t *testing.T) {
	if !almostEqual(Norm([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm(3,4) != 5")
	}
	if Norm(nil) != 0 {
		t.Error("Norm(nil) != 0")
	}
	if !almostEqual(Dist([]float64{1, 1}, []float64{4, 5}), 5, 1e-12) {
		t.Error("Dist != 5")
	}
	defer func() {
		if recover() == nil {
			t.Error("Dist should panic on dimension mismatch")
		}
	}()
	Dist([]float64{1}, []float64{1, 2})
}

func TestSamples1D(t *testing.T) {
	s := Samples1D(1, 0.5, []float64{7, 8, 9})
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	if s[2].T != 2 || s[2].Pos[0] != 9 {
		t.Errorf("last sample = %+v", s[2])
	}
	c := s[0].Clone()
	c.Pos[0] = -1
	if s[0].Pos[0] == -1 {
		t.Error("Sample.Clone shares position")
	}
}

func TestWindowSharesBacking(t *testing.T) {
	s := regularSeq(6)
	w := s.Window(1, 4)
	if len(w) != 3 || w[0].T != 1 {
		t.Errorf("Window = %+v", w)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestPositionFromEqualsPositionAt: whatever the hint — before t, after
// it, out of range — PositionFrom writes exactly what PositionAt
// returns, bit for bit, clamped ends included.
func TestPositionFromEqualsPositionAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := make(Sequence, 40)
	tt := 0.0
	for i := range s {
		tt += 0.1 + rng.Float64()
		s[i] = Vertex{T: tt, Pos: []float64{rng.NormFloat64(), rng.NormFloat64()}, State: EX}
	}
	dst := make([]float64, 2)
	for trial := 0; trial < 2000; trial++ {
		at := s[0].T - 1 + rng.Float64()*(s[len(s)-1].T-s[0].T+2)
		if trial%10 == 0 {
			at = s[rng.Intn(len(s))].T // exactly on a vertex
		}
		want, wantInside := s.PositionAt(at)
		for _, hint := range []int{-1, 0, rng.Intn(len(s)), len(s) - 1, len(s) + 3} {
			if inside := s.PositionFrom(dst, at, hint); inside != wantInside || dst[0] != want[0] || dst[1] != want[1] {
				t.Fatalf("PositionFrom(t=%v, hint=%d) = %v, %v; PositionAt = %v, %v", at, hint, dst, inside, want, wantInside)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.PositionFrom(dst, s[20].T+0.05, 20) }); allocs != 0 {
		t.Errorf("PositionFrom allocates %v times, want 0", allocs)
	}
}
