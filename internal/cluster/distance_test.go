package cluster

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/plr"
	"stsmatch/internal/stats"
	"stsmatch/internal/store"
)

// periodicStream builds a stream of perfectly periodic EX->EOE->IN
// cycles with the given amplitude and per-segment duration.
func periodicStream(pid, sid string, amp, dur float64, cycles int) *store.Stream {
	st := store.NewStream(pid, sid)
	states := []plr.State{plr.EX, plr.EOE, plr.IN}
	y := amp
	t := 0.0
	vs := plr.Sequence{{T: 0, Pos: []float64{amp}, State: plr.EX}}
	for i := 0; i < cycles*3; i++ {
		stt := states[i%3]
		switch stt {
		case plr.EX:
			y -= amp
		case plr.IN:
			y += amp
		}
		t += dur
		vs = append(vs, plr.Vertex{T: t, Pos: []float64{y}, State: states[(i+1)%3]})
		vs[len(vs)-2].State = stt
	}
	if err := st.Append(vs...); err != nil {
		panic(err)
	}
	return st
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.WindowVertices = 7
	cfg.TopH = 3
	cfg.QueryStride = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.WindowVertices = 1 },
		func(c *Config) { c.TopH = 0 },
		func(c *Config) { c.QueryStride = 0 },
		func(c *Config) { c.Params.WeightAmp = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestStreamDistanceIdenticalStreams(t *testing.T) {
	a := periodicStream("P1", "S1", 10, 1, 20)
	b := periodicStream("P2", "S1", 10, 1, 20)
	d, err := StreamDistance(a, b, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Identical motion from different patients: only the source
	// weight penalty remains, but the raw discrepancy is 0.
	if d > 1e-9 {
		t.Errorf("distance between identical streams = %v, want ~0", d)
	}
}

func TestStreamDistanceSymmetric(t *testing.T) {
	a := periodicStream("P1", "S1", 10, 1, 20)
	b := periodicStream("P2", "S1", 14, 1.2, 20)
	cfg := smallConfig()
	d1, err := StreamDistance(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := StreamDistance(b, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("stream distance not symmetric: %v vs %v", d1, d2)
	}
	if d1 <= 0 {
		t.Errorf("different streams should have positive distance, got %v", d1)
	}
}

func TestStreamDistanceOrdering(t *testing.T) {
	// Distance must grow with motion dissimilarity.
	base := periodicStream("P1", "S1", 10, 1, 20)
	near := periodicStream("P2", "S1", 11, 1, 20)
	far := periodicStream("P3", "S1", 25, 1.6, 20)
	cfg := smallConfig()
	dNear, err := StreamDistance(base, near, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := StreamDistance(base, far, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dNear >= dFar {
		t.Errorf("ordering violated: near %v >= far %v", dNear, dFar)
	}
}

func TestStreamDistanceSelfIsSmallest(t *testing.T) {
	// Figure 8b: "a stream should be the most similar to itself".
	self := periodicStream("P1", "S1", 10, 1, 20)
	other := periodicStream("P2", "S1", 13, 1.1, 20)
	cfg := smallConfig()
	dSelf, err := StreamDistance(self, self, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dOther, err := StreamDistance(self, other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dSelf >= dOther {
		t.Errorf("self distance %v not below other %v", dSelf, dOther)
	}
}

func TestStreamDistanceNoComparable(t *testing.T) {
	// A stream of pure IRR shares no state order with a regular one.
	irr := store.NewStream("P1", "S1")
	var vs plr.Sequence
	for i := 0; i < 30; i++ {
		vs = append(vs, plr.Vertex{T: float64(i), Pos: []float64{0}, State: plr.IRR})
	}
	if err := irr.Append(vs...); err != nil {
		t.Fatal(err)
	}
	reg := periodicStream("P2", "S1", 10, 1, 20)
	if _, err := StreamDistance(irr, reg, smallConfig()); !errors.Is(err, ErrNoComparable) {
		t.Errorf("want ErrNoComparable, got %v", err)
	}
}

func TestStreamDistanceShortStream(t *testing.T) {
	short := periodicStream("P1", "S1", 10, 1, 1) // 4 vertices < window 7
	reg := periodicStream("P2", "S1", 10, 1, 20)
	if _, err := StreamDistance(short, reg, smallConfig()); !errors.Is(err, ErrNoComparable) {
		t.Errorf("want ErrNoComparable for too-short stream, got %v", err)
	}
}

func TestPatientDistance(t *testing.T) {
	mkPatient := func(id string, amp float64) *store.Patient {
		p := &store.Patient{Info: store.PatientInfo{ID: id}}
		p.Streams = append(p.Streams,
			periodicStream(id, id+"-S1", amp, 1, 20),
			periodicStream(id, id+"-S2", amp*1.05, 1, 20),
		)
		return p
	}
	pa := mkPatient("A", 10)
	pb := mkPatient("B", 10.5)
	pc := mkPatient("C", 22)
	cfg := smallConfig()

	dAB, err := PatientDistance(pa, pb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dAC, err := PatientDistance(pa, pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dAB >= dAC {
		t.Errorf("similar patients %v not closer than dissimilar %v", dAB, dAC)
	}
	// Figure 8c: within-patient distance below cross-patient.
	dAA, err := PatientDistance(pa, pa, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dAA >= dAB {
		t.Errorf("self patient distance %v not below cross %v", dAA, dAB)
	}
	// Symmetry.
	dBA, err := PatientDistance(pb, pa, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dAB-dBA) > 1e-9 {
		t.Errorf("patient distance asymmetric: %v vs %v", dAB, dBA)
	}
}

func TestPatientDistanceMatrix(t *testing.T) {
	var patients []*store.Patient
	amps := []float64{10, 10.3, 20, 20.5}
	for i, amp := range amps {
		p := &store.Patient{Info: store.PatientInfo{ID: string(rune('A' + i))}}
		p.Streams = append(p.Streams, periodicStream(p.Info.ID, "S1", amp, 1, 20))
		patients = append(patients, p)
	}
	m, err := PatientDistanceMatrix(patients, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkDistMatrix(t, m)
	// Pairs within the same amplitude family must be closer than
	// across families.
	if !(m.At(0, 1) < m.At(0, 2) && m.At(2, 3) < m.At(1, 2)) {
		t.Errorf("matrix does not reflect families:\n%v", m)
	}
}

func TestStreamDistanceMatrix(t *testing.T) {
	streams := []*store.Stream{
		periodicStream("P1", "S1", 10, 1, 20),
		periodicStream("P1", "S2", 10.4, 1, 20),
		periodicStream("P2", "S1", 18, 1.3, 20),
	}
	m, self, err := StreamDistanceMatrix(streams, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkDistMatrix(t, m)
	if len(self) != 3 {
		t.Fatalf("self distances = %d", len(self))
	}
	// Self < same patient < other patient for stream 0 (Figure 8b).
	if !(self[0] <= m.At(0, 1) && m.At(0, 1) < m.At(0, 2)) {
		t.Errorf("Figure 8b ordering violated: self=%v same=%v other=%v",
			self[0], m.At(0, 1), m.At(0, 2))
	}
}

// relationBetween classifies the source relation between two streams
// for the offline source weight w_s, as the oracle states it.
func relationBetween(a, b *store.Stream) core.SourceRelation {
	switch {
	case a == b || (a.PatientID == b.PatientID && a.SessionID == b.SessionID):
		return core.SameSession
	case a.PatientID == b.PatientID:
		return core.SamePatient
	default:
		return core.OtherPatient
	}
}

func TestRelationBetween(t *testing.T) {
	a := store.NewStream("P1", "S1")
	b := store.NewStream("P1", "S2")
	c := store.NewStream("P2", "S1")
	if relationBetween(a, a) != 0 { // SameSession
		t.Error("self relation wrong")
	}
	if relationBetween(a, b) != 1 { // SamePatient
		t.Error("same patient relation wrong")
	}
	if relationBetween(a, c) != 2 { // OtherPatient
		t.Error("other patient relation wrong")
	}
}

// bruteDirectedDistance is d(R->S) as Definition 3 reads, the oracle
// directedDistance is held to: every window of S with the query's state
// order (FindWindows) is scored through the validating entry point
// (Params.OfflineDistance) and all of them are sorted to keep TopH. No
// lower bound, no collector, no abandonment.
func bruteDirectedDistance(r, s *store.Stream, cfg Config) (float64, int, error) {
	n := cfg.WindowVertices
	rSeq := r.Seq()
	if len(rSeq) < n {
		return 0, 0, nil
	}
	rel := relationBetween(r, s)
	sSeq := s.Seq()

	var total float64
	used := 0
	var dists []float64
	for qStart := 0; qStart+n <= len(rSeq); qStart += cfg.QueryStride {
		q := rSeq[qStart : qStart+n]
		dists = dists[:0]
		for _, j := range s.FindWindows(q.StateSignature()) {
			if r == s && j == qStart {
				continue // the query window itself, and only it
			}
			d, err := cfg.Params.OfflineDistance(q, sSeq[j:j+n], rel)
			if err != nil {
				return 0, 0, err
			}
			dists = append(dists, d)
		}
		if len(dists) < cfg.TopH {
			continue // outlier query
		}
		sort.Float64s(dists)
		total += stats.Mean(dists[:cfg.TopH])
		used++
	}
	if used == 0 {
		return 0, 0, nil
	}
	return total / float64(used), used, nil
}

// variedStream builds breathing cycles whose amplitudes and durations
// vary from segment to segment, with an irregular segment now and then,
// so that candidate distances differ and some signatures are rare.
func variedStream(pid, sid string, seed int64, cycles int) *store.Stream {
	rng := rand.New(rand.NewSource(seed))
	st := store.NewStream(pid, sid)
	regular := []plr.State{plr.EX, plr.EOE, plr.IN}
	var vs plr.Sequence
	t, y := 0.0, 10.0
	for i := 0; i <= cycles*3; i++ {
		state := regular[i%3]
		if rng.Intn(17) == 0 {
			state = plr.IRR
		}
		vs = append(vs, plr.Vertex{T: t, Pos: []float64{y}, State: state})
		t += 0.5 + rng.Float64()
		switch state {
		case plr.EX:
			y -= 8 + 4*rng.Float64()
		case plr.IN:
			y += 8 + 4*rng.Float64()
		default:
			y += rng.Float64() - 0.5
		}
	}
	if err := st.Append(vs...); err != nil {
		panic(err)
	}
	return st
}

// TestDirectedDistanceEqualsBruteForce holds the funnel-driven directed
// distance to the oracle, bit for bit, on both return values.
func TestDirectedDistanceEqualsBruteForce(t *testing.T) {
	a := variedStream("P1", "S1", 1, 40)
	twin := variedStream("P1", "S1", 1, 40) // a's IDs and vertices, another *store.Stream
	b := variedStream("P1", "S2", 2, 40)
	c := variedStream("P2", "S1", 3, 40)
	short := variedStream("P3", "S1", 4, 1) // 4 vertices < window 7
	for _, pair := range []struct {
		name string
		r, s *store.Stream
	}{
		{"self", a, a},
		{"twin", a, twin},
		{"same patient", a, b},
		{"other patient", a, c},
		{"other patient reversed", c, a},
		{"short query stream", short, a},
		{"short candidate stream", a, short},
	} {
		base := smallConfig()
		base.QueryStride = 1
		// The most candidates any query of r finds in s: TopH there is
		// the last value some query survives, one above it none does.
		most := 0
		for qStart := 0; qStart+base.WindowVertices <= pair.r.Len(); qStart++ {
			cands := len(pair.s.FindWindows(pair.r.Seq()[qStart : qStart+base.WindowVertices].StateSignature()))
			if pair.r == pair.s {
				cands--
			}
			most = max(most, cands)
		}
		type variant struct {
			name string
			mut  func(*Config)
		}
		variants := []variant{
			{"stride 1", func(*Config) {}},
			{"stride 3", func(c *Config) { c.QueryStride = 3 }},
			{"no state order", func(c *Config) { c.Params.RequireStateOrder = false }},
		}
		if most > 0 {
			variants = append(variants,
				variant{"h = most candidates", func(c *Config) { c.TopH = most }},
				variant{"h = most candidates + 1", func(c *Config) { c.TopH = most + 1 }})
		}
		for _, v := range variants {
			cfg := base
			v.mut(&cfg)
			name := pair.name + "/" + v.name
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			got, gotUsed := newSearcher(cfg).directedDistance(pair.r, pair.s)
			want, wantUsed, err := bruteDirectedDistance(pair.r, pair.s, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if got != want || gotUsed != wantUsed {
				t.Errorf("%s: directedDistance = %v over %d queries, oracle %v over %d", name, got, gotUsed, want, wantUsed)
			}
			switch tooShort := pair.r == short || pair.s == short; {
			case tooShort || cfg.TopH > most:
				if wantUsed != 0 {
					t.Errorf("%s: fixture: %d queries survive, want none", name, wantUsed)
				}
			case wantUsed == 0:
				t.Errorf("%s: fixture: no query survives", name)
			}
		}
	}
}

// TestStreamDistanceMixedDims: streams (and windows) of different
// dimensionality hold nothing comparable, in either argument order; no
// entry point indexes past the shorter position.
func TestStreamDistanceMixedDims(t *testing.T) {
	flat := periodicStream("P1", "S1", 10, 1, 20)
	deep := store.NewStream("P2", "S1")
	for _, v := range flat.Seq() {
		if err := deep.Append(plr.Vertex{T: v.T, Pos: []float64{v.Pos[0], v.Pos[0] / 2}, State: v.State}); err != nil {
			t.Fatal(err)
		}
	}
	p := core.DefaultParams()
	for _, tc := range []struct {
		name string
		r, s *store.Stream
	}{{"1-D against 2-D", flat, deep}, {"2-D against 1-D", deep, flat}} {
		if _, err := StreamDistance(tc.r, tc.s, smallConfig()); !errors.Is(err, ErrNoComparable) {
			t.Errorf("%s: StreamDistance error %v, want ErrNoComparable", tc.name, err)
		}
		q, c := tc.r.Seq()[:7], tc.s.Seq()[:7]
		if _, err := p.Distance(q, c, core.OtherPatient); !errors.Is(err, core.ErrDimsMismatch) {
			t.Errorf("%s: Distance error %v, want ErrDimsMismatch", tc.name, err)
		}
		if _, err := p.OfflineDistance(q, c, core.OtherPatient); !errors.Is(err, core.ErrDimsMismatch) {
			t.Errorf("%s: OfflineDistance error %v, want ErrDimsMismatch", tc.name, err)
		}
	}
}

// TestDirectedDistanceAllocsConstant: a directed distance allocates for
// the query stream's state string and for nothing per query window.
func TestDirectedDistanceAllocsConstant(t *testing.T) {
	cfg := smallConfig()
	sc := newSearcher(cfg)
	s := variedStream("P2", "S1", 3, 40)
	for _, cycles := range []int{10, 80} {
		r := variedStream("P1", "S1", 1, cycles)
		r.Seq() // the memo is the store's, built once per stream
		if got := testing.AllocsPerRun(10, func() { sc.directedDistance(r, s) }); got > 2 {
			t.Errorf("%d cycles: %v allocations per directed distance, want at most 2", cycles, got)
		}
	}
}

// checkDistMatrix fails unless m has a zero diagonal and symmetric,
// non-negative, non-NaN distances.
func checkDistMatrix(t *testing.T, m *stats.DistMatrix) {
	t.Helper()
	for i := 0; i < m.Size(); i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("nonzero diagonal at %d: %v", i, m.At(i, i))
		}
		for j := i + 1; j < m.Size(); j++ {
			if a := m.At(i, j); a != m.At(j, i) || a < 0 || math.IsNaN(a) {
				t.Fatalf("invalid distance at (%d,%d): %v vs %v", i, j, a, m.At(j, i))
			}
		}
	}
}
