package stats

import (
	"strings"
	"testing"
)

func TestDistMatrixSetAtSymmetric(t *testing.T) {
	m := NewDistMatrix(3)
	m.Set(0, 1, 2.5)
	m.Set(1, 2, 4)
	if m.At(1, 0) != 2.5 || m.At(0, 1) != 2.5 {
		t.Error("Set did not store symmetrically")
	}
	if m.At(2, 1) != 4 {
		t.Error("second pair not symmetric")
	}
	if m.Size() != 3 {
		t.Errorf("Size = %d, want 3", m.Size())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDistMatrixValidateCatchesViolations(t *testing.T) {
	m := NewDistMatrix(2)
	m.d[0] = 1 // nonzero diagonal, bypassing Set
	if err := m.Validate(); err == nil {
		t.Error("expected diagonal violation")
	}
	m = NewDistMatrix(2)
	m.d[1] = 1 // asymmetric, bypassing Set
	if err := m.Validate(); err == nil {
		t.Error("expected asymmetry violation")
	}
	m = NewDistMatrix(2)
	m.Set(0, 1, -3)
	if err := m.Validate(); err == nil {
		t.Error("expected negativity violation")
	}
}

func TestDistMatrixRowAndMean(t *testing.T) {
	m := NewDistMatrix(3)
	m.Set(0, 1, 1)
	m.Set(0, 2, 2)
	m.Set(1, 2, 3)
	row := m.Row(0)
	if row[0] != 0 || row[1] != 1 || row[2] != 2 {
		t.Errorf("Row(0) = %v", row)
	}
	row[1] = 99 // copy, must not affect matrix
	if m.At(0, 1) != 1 {
		t.Error("Row returned a view, want a copy")
	}
	if got := m.MeanOffDiagonal(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("MeanOffDiagonal = %v, want 2", got)
	}
	if NewDistMatrix(1).MeanOffDiagonal() != 0 {
		t.Error("MeanOffDiagonal of 1x1 should be 0")
	}
}

func TestDistMatrixString(t *testing.T) {
	m := NewDistMatrix(2)
	m.Set(0, 1, 1.5)
	s := m.String()
	if !strings.Contains(s, "1.500") {
		t.Errorf("String missing value: %q", s)
	}
	if strings.Count(s, "\n") != 2 {
		t.Errorf("expected 2 rows, got %q", s)
	}
}
