package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// TestSortHitsEqualsStableSort: the radix passes order any set of
// non-negative finite distances exactly as a stable comparison sort
// does, whichever bytes of the keys vary and whatever the length.
func TestSortHitsEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	denormal := math.Float64frombits(1)
	keysets := map[string]func(i int) float64{
		"all equal":          func(int) float64 { return 3.25 },
		"all zero":           func(int) float64 { return 0 },
		"one high byte":      func(i int) float64 { return []float64{1.5, 1.5, 1e300, 1.5}[i%4] },
		"one low bit":        func(i int) float64 { return math.Float64frombits(math.Float64bits(2) + uint64(i%2)) },
		"zero and denormals": func(i int) float64 { return float64(i%3) * denormal * float64(1+i%7) },
		"extremes":           func(i int) float64 { return []float64{1e308, 0, denormal, inf, 1, math.MaxFloat64}[i%6] },
		"threshold ball":     func(int) float64 { return 8 * rng.Float64() },
		"every binade":       func(int) float64 { return math.Float64frombits(rng.Uint64() >> 1 % math.Float64bits(math.Inf(1))) },
		"few distinct":       func(int) float64 { return float64(rng.Intn(5)) / 3 },
	}
	for name, key := range keysets {
		for _, n := range []int{0, 1, 2, 3, 47, 256, 257, 1000} {
			a := make([]hit, n)
			for i := range a {
				a[i] = hit{dist: key(i), start: int32(i), ord: int32(rng.Intn(9))}
			}
			want := slices.Clone(a)
			sort.SliceStable(want, func(i, j int) bool { return want[i].dist < want[j].dist })
			got := sortHits(a, make([]hit, n))
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d hits: radix order differs from the stable sort", name, n)
			}
		}
	}
}

// tieCorpus is a random corpus plus the streams that make exact
// distance ties at every level of the matchCmp key: one jittered stream
// registered byte for byte under the same patient and session twice
// (ordinal decides), under two patients (patient decides) and under two
// sessions of one patient (session decides), and a perfectly periodic
// stream, whose windows tie among themselves (start decides).
func tieCorpus(t *testing.T, seed int64) *store.DB {
	t.Helper()
	db := scanCorpus(t, seed, 6, 300)
	rng := rand.New(rand.NewSource(seed + 100))
	dup := randomBreathing(rng, 240)
	add := func(pid, sid string, seq plr.Sequence) {
		p := db.Patient(pid)
		if p == nil {
			var err error
			if p, err = db.AddPatient(store.PatientInfo{ID: pid}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.AddStream(sid).Append(seq.Clone()...); err != nil {
			t.Fatal(err)
		}
	}
	add("P001", "dup", dup)
	add("P001", "dup", dup)
	add("Q1", "dup", dup)
	add("Q2", "dup", dup)
	add("Q3", "dupA", dup)
	add("Q3", "dupB", dup)
	add("Q4", "periodic", breathingWindow(0, 10, unitDurs(120)))
	db.EnableIndexes()
	return db
}

// TestThresholdOrderEqualsMatchCmp: results built in radix order, with
// matchCmp applied only inside runs of equal distance, are element for
// element what sorting the same set with matchCmp gives — FindSimilar
// and FindSimilarTopK, restricted and not, sequential and fanned out.
func TestThresholdOrderEqualsMatchCmp(t *testing.T) {
	alwaysFanOut(t)
	for seed := int64(1); seed <= 3; seed++ {
		db := tieCorpus(t, seed)
		all := map[string]bool{}
		for _, st := range db.Streams() {
			all[st.PatientID] = true
		}
		some := map[string]bool{"P001": true, "P003": true, "Q2": true, "Q3": true, "Q4": true}
		for _, par := range []int{1, 2} {
			p := DefaultParams()
			p.Parallelism = par
			m, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []*store.Stream{db.Patient("P000").Streams[0], db.Patient("Q4").Streams[0]} {
				q := regularQuery(t, src, 7)
				full := bruteForce(t, db, p, q, 0, p.DistThreshold)
				for name, restrict := range map[string]map[string]bool{"all": nil, "listed": all, "some": some} {
					label := fmt.Sprintf("seed=%d par=%d src=%s restrict=%s", seed, par, src.PatientID, name)
					want := full
					if restrict != nil {
						want = nil
						for _, mt := range full {
							if restrict[mt.Stream.PatientID] {
								want = append(want, mt)
							}
						}
					}
					got, err := m.FindSimilar(q, restrict)
					if err != nil {
						t.Fatal(err)
					}
					matchesIdentical(t, label+" FindSimilar", want, got)
					resorted := slices.Clone(got)
					rand.New(rand.NewSource(seed)).Shuffle(len(resorted), func(i, j int) {
						resorted[i], resorted[j] = resorted[j], resorted[i]
					})
					slices.SortFunc(resorted, matchCmp)
					if !slices.Equal(resorted, got) {
						t.Errorf("%s: FindSimilar's order is not matchCmp's", label)
					}
					topk, err := m.FindSimilarTopK(q, 25, restrict)
					if err != nil {
						t.Fatal(err)
					}
					matchesIdentical(t, label+" FindSimilarTopK", want[:25], topk)

					ties := 0
					for i := 1; i < len(got); i++ {
						if got[i].Distance == got[i-1].Distance {
							ties++
						}
					}
					if len(got) < 2*radixMin || ties < 8 {
						t.Errorf("%s: fixture has %d matches and %d ties; want the radix path and tied runs", label, len(got), ties)
					}
				}
			}
		}
	}
}
