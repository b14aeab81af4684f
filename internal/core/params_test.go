package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"stsmatch/internal/plr"
)

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	// The Table 1 settings of the paper.
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"WeightAmp", p.WeightAmp, 1.0},
		{"WeightFreq", p.WeightFreq, 0.25},
		{"VertexWeightBase", p.VertexWeightBase, 0.8},
		{"WeightSameSession", p.WeightSameSession, 1.0},
		{"WeightSamePatient", p.WeightSamePatient, 0.9},
		{"WeightOtherPatient", p.WeightOtherPatient, 0.3},
		{"DistThreshold", p.DistThreshold, 8.0},
		{"StabilityThreshold", p.StabilityThreshold, 6.0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v (Table 1)", c.name, c.got, c.want)
		}
	}
	if p.MinQueryCycles != 3 || p.MaxQueryCycles != 8 {
		t.Errorf("query cycle bounds = [%d, %d], want [3, 8]", p.MinQueryCycles, p.MaxQueryCycles)
	}
}

func TestParamsValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero amp weight", func(p *Params) { p.WeightAmp = 0 }},
		{"freq above amp", func(p *Params) { p.WeightFreq = 2 }},
		{"vertex base zero", func(p *Params) { p.VertexWeightBase = 0 }},
		{"vertex base above one", func(p *Params) { p.VertexWeightBase = 1.1 }},
		{"stream weight order", func(p *Params) { p.WeightOtherPatient = 0.95 }},
		{"zero threshold", func(p *Params) { p.DistThreshold = 0 }},
		{"zero stability", func(p *Params) { p.StabilityThreshold = 0 }},
		{"cycle bounds", func(p *Params) { p.MaxQueryCycles = p.MinQueryCycles - 1 }},
		{"zero min cycles", func(p *Params) { p.MinQueryCycles = 0 }},
	}
	for _, m := range mutations {
		p := DefaultParams()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}

	// NaN passes every ordering check, and so does +Inf in a weight the
	// ordering does not cap: each is refused, by the field's name.
	nan, posInf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		mut   func(*Params)
	}{
		{"WeightAmp", func(p *Params) { p.WeightAmp = nan }},
		{"WeightFreq", func(p *Params) { p.WeightFreq = nan }},
		{"VertexWeightBase", func(p *Params) { p.VertexWeightBase = nan }},
		{"WeightSameSession", func(p *Params) { p.WeightSameSession = nan }},
		{"WeightSamePatient", func(p *Params) { p.WeightSamePatient = nan }},
		{"WeightOtherPatient", func(p *Params) { p.WeightOtherPatient = nan }},
		{"DistThreshold", func(p *Params) { p.DistThreshold = nan }},
		{"StabilityThreshold", func(p *Params) { p.StabilityThreshold = nan }},
		{"WeightAmp", func(p *Params) { p.WeightAmp = posInf }},
		{"WeightFreq", func(p *Params) { p.WeightFreq = posInf }},
		{"WeightSameSession", func(p *Params) { p.WeightSameSession = posInf }},
		{"WeightSamePatient", func(p *Params) { p.WeightSamePatient = posInf }},
		{"WeightOtherPatient", func(p *Params) { p.WeightOtherPatient = posInf }},
	} {
		p := DefaultParams()
		c.mut(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", c.field, err)
		}
	}
}

func TestStreamWeightOrdering(t *testing.T) {
	p := DefaultParams()
	ss := p.StreamWeight(SameSession)
	sp := p.StreamWeight(SamePatient)
	op := p.StreamWeight(OtherPatient)
	if !(ss > sp && sp > op) {
		t.Errorf("stream weights not ordered: %v %v %v", ss, sp, op)
	}
	p.UseStreamWeights = false
	if p.StreamWeight(OtherPatient) != 1 {
		t.Error("ablated stream weight should be 1")
	}
}

func TestSourceRelationString(t *testing.T) {
	if SameSession.String() != "same-session" ||
		SamePatient.String() != "same-patient" ||
		OtherPatient.String() != "other-patient" {
		t.Error("relation names wrong")
	}
}

func TestVertexWeightsRamp(t *testing.T) {
	p := DefaultParams()
	w := p.VertexWeights(nil, 5) // 4 segments
	if len(w) != 4 {
		t.Fatalf("len = %d, want 4", len(w))
	}
	if math.Abs(w[0]-0.8) > 1e-12 {
		t.Errorf("w[0] = %v, want VertexWeightBase 0.8", w[0])
	}
	if math.Abs(w[3]-1) > 1e-12 {
		t.Errorf("w[last] = %v, want 1", w[3])
	}
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Errorf("weights not increasing at %d: %v", i, w)
		}
	}
	// Single-segment query gets weight 1.
	w = p.VertexWeights(nil, 2)
	if len(w) != 1 || w[0] != 1 {
		t.Errorf("single segment weights = %v", w)
	}
	// Ablated: all ones.
	p.UseVertexWeights = false
	w = p.VertexWeights(nil, 6)
	for _, x := range w {
		if x != 1 {
			t.Errorf("ablated weights = %v", w)
		}
	}
}

// Property: vertex weights always lie in [w0, 1] and are monotone
// non-decreasing.
func TestVertexWeightsProperty(t *testing.T) {
	f := func(nRaw uint8, w0Raw uint8) bool {
		n := int(nRaw%40) + 2
		p := DefaultParams()
		p.VertexWeightBase = 0.05 + float64(w0Raw%90)/100
		w := p.VertexWeights(nil, n)
		if len(w) != n-1 {
			return false
		}
		for i, x := range w {
			if x < p.VertexWeightBase-1e-12 || x > 1+1e-12 {
				return false
			}
			if i > 0 && x < w[i-1]-1e-12 {
				return false
			}
		}
		return math.Abs(w[len(w)-1]-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVertexWeightsBufferReuse(t *testing.T) {
	p := DefaultParams()
	buf := make([]float64, 0, 16)
	w1 := p.VertexWeights(buf, 10)
	w2 := p.VertexWeights(w1, 6)
	if len(w2) != 5 {
		t.Errorf("reused buffer length = %d", len(w2))
	}
	if cap(w2) < 9 {
		t.Error("buffer not reused")
	}
}

func TestQueryVertexConversions(t *testing.T) {
	p := DefaultParams()
	if p.MinQueryVertices() != 10 { // 3 cycles * 3 segments + 1
		t.Errorf("MinQueryVertices = %d, want 10", p.MinQueryVertices())
	}
	if p.MaxQueryVertices() != 25 {
		t.Errorf("MaxQueryVertices = %d, want 25", p.MaxQueryVertices())
	}
}

func TestStatesEqual(t *testing.T) {
	a := plr.Sequence{
		{T: 0, Pos: []float64{0}, State: plr.EX},
		{T: 1, Pos: []float64{0}, State: plr.EOE},
		{T: 2, Pos: []float64{0}, State: plr.IN},
	}
	b := a.Clone()
	if !statesEqual(a, b) {
		t.Error("identical sequences should have equal states")
	}
	// The final vertex's state is excluded (open trailing segment).
	b[2].State = plr.IRR
	if !statesEqual(a, b) {
		t.Error("final vertex state must not participate")
	}
	b[0].State = plr.IN
	if statesEqual(a, b) {
		t.Error("differing segment state must fail")
	}
	if statesEqual(a, a[:2]) {
		t.Error("length mismatch must fail")
	}
}
