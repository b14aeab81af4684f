package store

import (
	"testing"

	"stsmatch/internal/plr"
)

// TestMutationHookChaining pins the multi-hook contract: AddMutationHook
// chains observers in installation order, and a nil hook adds nothing.
func TestMutationHookChaining(t *testing.T) {
	db := NewDB()
	var order []string
	db.AddMutationHook(func(m Mutation) { order = append(order, "a:"+kindName(m.Kind)) })
	db.AddMutationHook(func(m Mutation) { order = append(order, "b:"+kindName(m.Kind)) })

	p, err := db.AddPatient(PatientInfo{ID: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("S1")
	if err := st.Append(plr.Vertex{T: 1, Pos: []float64{0}, State: plr.EX}); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"a:patient-upsert", "b:patient-upsert",
		"a:stream-open", "b:stream-open",
		"a:vertex-append", "b:vertex-append",
	}
	if len(order) != len(want) {
		t.Fatalf("hook calls = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hook call %d = %q, want %q (all: %v)", i, order[i], want[i], order)
		}
	}

	// A nil hook is not installed.
	order = nil
	db.AddMutationHook(nil)
	p.AddStream("S2")
	if len(order) != 2 {
		t.Fatalf("after adding nil: calls = %v, want a and b only", order)
	}
}

func kindName(k MutationKind) string {
	switch k {
	case MutPatientUpsert:
		return "patient-upsert"
	case MutStreamOpen:
		return "stream-open"
	case MutVertexAppend:
		return "vertex-append"
	}
	return "?"
}
