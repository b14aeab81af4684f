package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// TestThresholdPlacementEqualsSort: rank's placement gives, element for
// element, what building every match and sorting with matchCmp gives —
// whatever the distances do to the bucket table (all in one bucket, one
// outlier stretching the range, a range of zero or of one denormal, the
// largest finite threshold), from no hits to a thousand, from one
// worker's hits and from several's.
func TestThresholdPlacementEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	denormal := math.Float64frombits(1)
	const eps = 8.0
	keysets := map[string]func(i int) float64{
		"all equal":         func(int) float64 { return 3.25 },
		"all equal to eps":  func(int) float64 { return eps },
		"dmin == dmax == 0": func(int) float64 { return 0 },
		"one outlier": func(i int) float64 {
			if i == 7 {
				return 1e12
			}
			return rng.Float64()
		},
		"eps = 1e308":    func(int) float64 { return inf * rng.Float64() },
		"eps = 5e-324":   func(i int) float64 { return float64(i%2) * denormal },
		"denormal range": func(i int) float64 { return float64(i%5) * denormal },
		"one low bit":    func(i int) float64 { return math.Float64frombits(math.Float64bits(2) + uint64(i%2)) },
		"threshold ball": func(int) float64 { return eps * rng.Float64() },
		"few distinct":   func(int) float64 { return float64(rng.Intn(5)) / 3 },
		"every binade":   func(int) float64 { return math.Float64frombits(rng.Uint64() >> 1 % math.Float64bits(math.Inf(1))) },
	}
	// Streams that tie on every prefix of the matchCmp key.
	var streams []*store.Stream
	for _, id := range [][2]string{{"A", "s"}, {"A", "s"}, {"A", "t"}, {"B", "s"}, {"B", "s"}, {"C", "u"}} {
		streams = append(streams, store.NewStream(id[0], id[1]))
	}
	pl := &queryPlan{q: Query{PatientID: "A", SessionID: "s"}, n: 5, ws: [3]float64{1, 0.8, 0.5}}
	m := &Matcher{}
	for name, key := range keysets {
		for _, n := range []int{0, 1, 2, 3, 48, 257, 1000} {
			for _, nw := range []int{1, 3} {
				workers := make([]*workerState, nw)
				for i := range workers {
					workers[i] = &workerState{}
				}
				var want []Match
				for i := 0; i < n; i++ {
					h := hit{dist: key(i), start: int32(i / 2), ord: int32(rng.Intn(len(streams)))}
					st := streams[h.ord]
					want = append(want, pl.match(st, relationOf(pl.q, st), h))
					w := workers[rng.Intn(nw)]
					if len(w.hits) == 0 || h.dist < w.dmin {
						w.dmin = h.dist
					}
					w.hits, w.dmax = append(w.hits, h), max(w.dmax, h.dist)
				}
				slices.SortFunc(want, matchCmp)
				if got := m.rank(pl, workers, streams); !slices.Equal(got, want) {
					t.Errorf("%s, %d hits from %d workers: placement differs from build-and-sort", name, n, nw)
				}
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

// TestThresholdOrderEqualsMatchCmp: results placed by bucket, with
// matchCmp applied only inside a bucket, are element for
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
					if len(got) < 96 || ties < 8 {
						t.Errorf("%s: fixture has %d matches and %d ties; want many buckets and tied runs", label, len(got), ties)
					}
				}
			}
		}
	}
}
