package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"stsmatch/internal/plr"
)

// breathingWindow builds a window of vertices following the regular
// EX->EOE->IN rotation: each full cycle falls by amp, rests, rises by
// amp. durs gives per-segment durations; len(durs)+1 vertices result.
func breathingWindow(t0 float64, amp float64, durs []float64) plr.Sequence {
	states := []plr.State{plr.EX, plr.EOE, plr.IN}
	out := plr.Sequence{{T: t0, Pos: []float64{amp}, State: states[0]}}
	y := amp
	t := t0
	for i, d := range durs {
		st := states[i%3]
		switch st {
		case plr.EX:
			y -= amp
		case plr.IN:
			y += amp
		}
		t += d
		next := states[(i+1)%3]
		out = append(out, plr.Vertex{T: t, Pos: []float64{y}, State: next})
		out[len(out)-2].State = st
	}
	return out
}

func unitDurs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestDistanceIdenticalIsZero(t *testing.T) {
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(9))
	c := q.Clone()
	d, err := p.Distance(q, c, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("distance of identical windows = %v, want 0", d)
	}
}

func TestDistanceOffsetInsensitive(t *testing.T) {
	// "insensitive to offset translation": shifting a candidate
	// vertically must not change the distance.
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(9))
	c := breathingWindow(50, 10, unitDurs(9))
	for i := range c {
		c[i].Pos[0] += 42.5
	}
	d, err := p.Distance(q, c, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("offset-shifted distance = %v, want ~0", d)
	}
}

func TestDistanceTimeShiftInsensitive(t *testing.T) {
	// Distance depends on durations, not absolute times.
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(9))
	c := breathingWindow(1234.5, 10, unitDurs(9))
	d, err := p.Distance(q, c, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("time-shifted distance = %v, want ~0", d)
	}
}

func TestDistanceStateMismatch(t *testing.T) {
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(6))
	c := q.Clone()
	c[0].State = plr.IN // starts with an inhale instead of an exhale
	if _, err := p.Distance(q, c, SameSession); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("want ErrStateMismatch, got %v", err)
	}
	// Ablated state order: mismatch tolerated.
	p.RequireStateOrder = false
	if _, err := p.Distance(q, c, SameSession); err != nil {
		t.Errorf("ablated state order should not error: %v", err)
	}
}

func TestDistanceLengthMismatchAndTooShort(t *testing.T) {
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(6))
	if _, err := p.Distance(q, q[:5], SameSession); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := p.Distance(q[:1], q[:1], SameSession); !errors.Is(err, ErrTooShort) {
		t.Errorf("want ErrTooShort, got %v", err)
	}
}

func TestDistanceAmplitudeScalesWithWeightAmp(t *testing.T) {
	p := DefaultParams()
	p.UseVertexWeights = false
	q := breathingWindow(0, 10, unitDurs(3))
	c := breathingWindow(0, 12, unitDurs(3)) // amplitude differs by 2 on EX and IN
	d1, err := p.Distance(q, c, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation: segments EX (delta -10 vs -12 -> diff 2),
	// EOE (0 vs 0), IN (+10 vs +12 -> diff 2); durations equal.
	// Mean over 3 segments with wa=1: (2+0+2)/3.
	want := 4.0 / 3
	if math.Abs(d1-want) > 1e-9 {
		t.Errorf("distance = %v, want %v", d1, want)
	}
	// Doubling WeightAmp doubles the amplitude contribution.
	p2 := p
	p2.WeightAmp = 2
	d2, err := p2.Distance(q, c, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2-2*d1) > 1e-9 {
		t.Errorf("wa=2 distance = %v, want %v", d2, 2*d1)
	}
}

func TestDistanceFrequencyTerm(t *testing.T) {
	p := DefaultParams()
	p.UseVertexWeights = false
	q := breathingWindow(0, 10, []float64{1, 1, 1})
	c := breathingWindow(0, 10, []float64{1.4, 1, 1}) // EX takes 0.4s longer
	d, err := p.Distance(q, c, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	// Only the duration term differs: wf * 0.4 on one of 3 segments.
	want := 0.25 * 0.4 / 3
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("distance = %v, want %v", d, want)
	}
}

func TestDistanceStreamWeightScaling(t *testing.T) {
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(6))
	c := breathingWindow(0, 11, unitDurs(6))
	dss, _ := p.Distance(q, c, SameSession)
	dsp, _ := p.Distance(q, c, SamePatient)
	dop, _ := p.Distance(q, c, OtherPatient)
	if !(dss < dsp && dsp < dop) {
		t.Errorf("distances not ordered by trust: %v %v %v", dss, dsp, dop)
	}
	// Exact scaling: D(rel) = D(base)/w_s.
	if math.Abs(dsp-dss/0.9) > 1e-9 || math.Abs(dop-dss/0.3) > 1e-9 {
		t.Errorf("stream weight scaling broken: %v %v %v", dss, dsp, dop)
	}
}

func TestDistanceRecencyWeighting(t *testing.T) {
	// A mismatch on the most recent segment must cost more than the
	// same mismatch on the oldest segment.
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(9))

	early := q.Clone()
	early[1].Pos[0] += 3 // perturb an early vertex
	late := q.Clone()
	late[len(late)-2].Pos[0] += 3 // perturb a late vertex

	dEarly, err := p.Distance(q, early, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	dLate, err := p.Distance(q, late, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	if dLate <= dEarly {
		t.Errorf("recency weighting inactive: early=%v late=%v", dEarly, dLate)
	}
	// Without vertex weights the two must cost the same.
	p.UseVertexWeights = false
	dEarly2, _ := p.Distance(q, early, SameSession)
	dLate2, _ := p.Distance(q, late, SameSession)
	if math.Abs(dEarly2-dLate2) > 1e-9 {
		t.Errorf("ablated recency should equalize: %v vs %v", dEarly2, dLate2)
	}
}

func TestOfflineDistanceIgnoresRecency(t *testing.T) {
	p := DefaultParams()
	q := breathingWindow(0, 10, unitDurs(9))
	early := q.Clone()
	early[1].Pos[0] += 3
	late := q.Clone()
	late[len(late)-2].Pos[0] += 3
	dEarly, err := p.OfflineDistance(q, early, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	dLate, err := p.OfflineDistance(q, late, SameSession)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dEarly-dLate) > 1e-9 {
		t.Errorf("offline distance should ignore recency: %v vs %v", dEarly, dLate)
	}
}

func TestDistanceMultiDim(t *testing.T) {
	p := DefaultParams()
	p.UseVertexWeights = false
	mk := func(dy float64) plr.Sequence {
		return plr.Sequence{
			{T: 0, Pos: []float64{0, 0}, State: plr.IN},
			{T: 1, Pos: []float64{3, 4 + dy}, State: plr.EX},
		}
	}
	d, err := p.Distance(mk(0), mk(1), SameSession)
	if err != nil {
		t.Fatal(err)
	}
	// Segment delta diff is (0, 1) -> norm 1, one segment, wa=1.
	if math.Abs(d-1) > 1e-9 {
		t.Errorf("multi-dim distance = %v, want 1", d)
	}
}

// Properties: non-negativity, symmetry (for equal relations), and
// identity for the online distance over random same-state windows.
func TestDistanceMetricProperties(t *testing.T) {
	p := DefaultParams()
	f := func(amps [8]int8, durs [8]uint8) bool {
		q := breathingWindow(0, 10, unitDurs(8))
		c := q.Clone()
		for i := 0; i < 8; i++ {
			c[i+1].Pos[0] += float64(amps[i]) / 16
			// Perturb durations, preserving monotonicity.
		}
		tshift := 0.0
		for i := 0; i < 8; i++ {
			tshift += float64(durs[i]%8) / 100
			c[i+1].T += tshift
		}
		d1, err1 := p.Distance(q, c, SamePatient)
		d2, err2 := p.Distance(c, q, SamePatient)
		if err1 != nil || err2 != nil {
			return false
		}
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: bounded evaluation agrees with the exact distance — it
// either completes with the identical value, or abandons only when the
// true distance really exceeds the bound.
func TestDistanceBoundedAgreesWithExact(t *testing.T) {
	p := DefaultParams()
	f := func(amps [9]int8, boundRaw uint8) bool {
		q := breathingWindow(0, 10, unitDurs(9))
		c := q.Clone()
		for i := 0; i < 9; i++ {
			c[i+1].Pos[0] += float64(amps[i]) / 4
		}
		exact, err := p.Distance(q, c, SamePatient)
		if err != nil {
			return false
		}
		bound := 0.05 + float64(boundRaw)/64
		got, ok, err := p.distanceBounded(q, c, SamePatient, bound)
		if err != nil {
			return false
		}
		if ok {
			return math.Abs(got-exact) < 1e-9
		}
		return exact > bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the normalized distance is threshold-comparable across
// lengths — a uniform per-segment discrepancy yields the same distance
// for short and long windows.
func TestDistanceLengthNormalization(t *testing.T) {
	p := DefaultParams()
	p.UseVertexWeights = false
	for _, n := range []int{3, 6, 9, 18} {
		q := breathingWindow(0, 10, unitDurs(n))
		c := breathingWindow(0, 11, unitDurs(n))
		d, err := p.Distance(q, c, SameSession)
		if err != nil {
			t.Fatal(err)
		}
		// Per cycle: EX and IN each differ by 1, EOE by 0 -> mean 2/3.
		if math.Abs(d-2.0/3) > 1e-9 {
			t.Errorf("n=%d: distance = %v, want 2/3", n, d)
		}
	}
}

// FuzzKernelOneDim holds the kernel's one-coordinate body to its general
// one: a 1-D pair and the same pair padded to three coordinates with
// zeros (whose squared norm is d*d + 0 + 0, the square root taken) give
// the same bits from Params.Distance, and the same bits and the same
// within-bound flag from the bounded form. x1 is the first segment's
// displacement difference exactly, so the seeds sit on the guard's edges.
func FuzzKernelOneDim(f *testing.F) {
	ulps := func(x float64, n int64) float64 { return math.Float64frombits(uint64(int64(math.Float64bits(x)) + n)) }
	for _, d := range []float64{0, 3.5, -3.5, 1e300, -1e300, 5e-324, -5e-324, 0x1p-1040, math.MaxFloat64,
		0x1p-511, ulps(0x1p-511, 1), ulps(0x1p-511, -1), -0x1p-511, 0x1p511, ulps(0x1p511, 1), ulps(0x1p511, -1), -ulps(0x1p511, -1)} {
		f.Add(d, 1.25, 0.5, 1.0, 2.0)
		f.Add(d, d, -d, 0.25, d)
	}
	f.Fuzz(func(t *testing.T, x1, x2, y2, dt, bound float64) {
		window := func(dims int, disp [2]float64, dur float64) plr.Sequence {
			seq := plr.Sequence{{State: plr.EX}, {State: plr.EOE}, {State: plr.IN}}
			at := 0.0
			for i := range seq {
				seq[i].T, seq[i].Pos = float64(i)*dur, make([]float64, dims)
				seq[i].Pos[0] = at
				if i < 2 {
					at += disp[i]
				}
			}
			return seq
		}
		p := DefaultParams()
		rel := SourceRelation(math.Float64bits(x2) % 3)
		q1, c1 := window(1, [2]float64{x1, x2}, 1), window(1, [2]float64{0, y2}, 1+dt)
		q3, c3 := window(3, [2]float64{x1, x2}, 1), window(3, [2]float64{0, y2}, 1+dt)
		d1, err1 := p.Distance(q1, c1, rel)
		d3, err3 := p.Distance(q3, c3, rel)
		if err1 != nil || err3 != nil {
			t.Fatalf("Distance: %v, %v", err1, err3)
		}
		// Two NaNs are the same answer whatever their payloads.
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
		}
		if !same(d1, d3) {
			t.Fatalf("x1=%x: 1-D distance %x, padded to 3-D %x", x1, d1, d3)
		}
		b1, ok1, _ := p.distanceBounded(q1, c1, rel, bound)
		b3, ok3, _ := p.distanceBounded(q3, c3, rel, bound)
		if !same(b1, b3) || ok1 != ok3 {
			t.Fatalf("x1=%x bound=%x: 1-D bounded distance %x (within %v), padded to 3-D %x (within %v)", x1, bound, b1, ok1, b3, ok3)
		}
	})
}
