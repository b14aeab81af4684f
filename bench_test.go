package stsmatch_test

// Benchmarks, one per table/figure of the paper plus the Section 7.5
// efficiency claims. The series themselves (error curves, distance
// orderings) are regenerated by `go run ./cmd/experiments`; these
// benches measure the computational cost of each experiment's core
// operation so regressions in the hot paths are caught by
// `go test -bench=. -benchmem`.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stsmatch/internal/baseline"
	"stsmatch/internal/cluster"
	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/experiments"
	"stsmatch/internal/fsm"
	"stsmatch/internal/obs"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/stats"
	"stsmatch/internal/store"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// env lazily builds the shared quick-scale environment.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.Setup(experiments.QuickScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// benchQuery returns a dynamic query over the first usable stream.
func benchQuery(b *testing.B, e *experiments.Env, p core.Params) core.Query {
	b.Helper()
	for _, st := range e.DB.Streams() {
		seq := st.Seq()
		if len(seq) < p.MaxQueryVertices()+4 {
			continue
		}
		qseq, _ := p.DynamicQuery(seq[:len(seq)-2])
		return core.NewQuery(qseq, st.PatientID, st.SessionID)
	}
	b.Fatal("no usable stream")
	return core.Query{}
}

// --- Table 1: parameter validation (the settings table itself) ------

func BenchmarkTable1ParamsValidate(b *testing.B) {
	p := core.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: the weighted subsequence distance --------------------

func BenchmarkFig6Distance(b *testing.B) {
	e := env(b)
	p := core.DefaultParams()
	q := benchQuery(b, e, p)
	// A same-length candidate from another stream.
	var cand plr.Sequence
	for _, st := range e.DB.Streams() {
		ws := st.FindWindows(q.Seq.StateSignature())
		if len(ws) > 0 {
			cand = st.Window(ws[0], len(q.Seq))
			break
		}
	}
	if cand == nil {
		b.Skip("no candidate window")
	}
	for _, cfg := range []struct {
		name string
		mut  func(*core.Params)
	}{
		{"all-weighting", func(*core.Params) {}},
		{"no-weighting", func(p *core.Params) {
			p.UseAmpFreqWeights, p.UseStreamWeights, p.UseVertexWeights = false, false, false
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			pp := core.DefaultParams()
			cfg.mut(&pp)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pp.Distance(q.Seq, cand, core.SamePatient); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6PredictionPipeline(b *testing.B) {
	e := env(b)
	m, err := core.NewMatcher(e.DB, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, e, m.Params)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matches, err := m.FindSimilar(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.PredictPosition(q, matches, 0.2, 0); err != nil && err != core.ErrNoMatches {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6WeightedEuclideanBaseline(b *testing.B) {
	e := env(b)
	bm := baseline.NewMatcher(e.DB, baseline.MethodWeightedEuclidean)
	q := benchQuery(b, e, core.DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bm.FindSimilar(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: stability and dynamic query generation ---------------

func BenchmarkFig7Stability(b *testing.B) {
	e := env(b)
	p := core.DefaultParams()
	seq := e.DB.Streams()[0].Seq()
	strip := seq[:p.MinQueryVertices()]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Stability(strip)
	}
}

func BenchmarkFig7DynamicQuery(b *testing.B) {
	e := env(b)
	p := core.DefaultParams()
	seq := e.DB.Streams()[0].Seq()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.DynamicQuery(seq)
	}
}

// --- Figure 8: offline stream/patient distances and clustering ------

func BenchmarkFig8StreamDistance(b *testing.B) {
	e := env(b)
	streams := e.DB.Streams()
	cfg := cluster.DefaultConfig()
	cfg.QueryStride = 2
	cfg.TopH = 3 // quick-scale streams are short; keep queries comparable
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.StreamDistance(streams[0], streams[1], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatientDistanceMatrix is the Definition 4 matrix behind
// Figures 8 and 9. Quick and default streams hold some twenty candidates
// a query window, too few for a bound to prune; long (6 patients x 2
// sessions x 1200 s) is where the candidate funnel earns its place.
func BenchmarkPatientDistanceMatrix(b *testing.B) {
	for _, scale := range []experiments.Scale{
		experiments.QuickScale,
		experiments.DefaultScale,
		{Name: "long", Patients: 6, Sessions: 2, SessionDur: 1200, QueryStride: 4},
	} {
		b.Run(scale.Name, func(b *testing.B) {
			e, err := experiments.Setup(scale)
			if err != nil {
				b.Fatal(err)
			}
			cfg := cluster.DefaultConfig()
			cfg.QueryStride = scale.QueryStride
			ps := e.DB.Patients()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.PatientDistanceMatrix(ps, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOfflineDistancesPinned holds Section 5's numbers to checksums over
// their float bits: every cell of the patient distance matrix, then each
// patient's distance to itself, at the quick and the default scale, and
// the stream distance matrix with its self-distances over the default
// cohort's first three patients. A change to how the offline distance
// finds or scores its candidates must leave them where they are.
func TestOfflineDistancesPinned(t *testing.T) {
	sum := func(fill func(add func(float64))) string {
		h := fnv.New64a()
		fill(func(x float64) { fmt.Fprintf(h, "%x,", math.Float64bits(x)) })
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, tc := range []struct {
		scale             experiments.Scale
		patients, streams string
	}{
		{scale: experiments.QuickScale, patients: "2c4810ae450636d2"},
		{scale: experiments.DefaultScale, patients: "12430ad27a521cd5", streams: "47c359280b90c200"},
	} {
		e, err := experiments.Setup(tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.DefaultConfig()
		cfg.QueryStride = tc.scale.QueryStride
		ps := e.DB.Patients()
		got := sum(func(add func(float64)) {
			m, err := cluster.PatientDistanceMatrix(ps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				for j := range ps {
					add(m.At(i, j))
				}
			}
			for _, p := range ps {
				d, err := cluster.PatientDistance(p, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				add(d)
			}
		})
		if got != tc.patients {
			t.Errorf("%s: patient distances checksum %s, want %s", tc.scale.Name, got, tc.patients)
		}
		if tc.streams == "" {
			continue
		}
		streams := e.DB.Streams()[:3*tc.scale.Sessions]
		got = sum(func(add func(float64)) {
			m, self, err := cluster.StreamDistanceMatrix(streams, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range streams {
				for j := range streams {
					add(m.At(i, j))
				}
			}
			for _, d := range self {
				add(d)
			}
		})
		if got != tc.streams {
			t.Errorf("%s: stream distances checksum %s, want %s", tc.scale.Name, got, tc.streams)
		}
	}
}

func BenchmarkFig8KMedoids(b *testing.B) {
	// Cluster a synthetic 40-patient distance matrix (the clustering
	// step alone; distance matrices are benched above).
	const n = 40
	m := stats.NewDistMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 + float64((i*7+j*13)%10)
			if (i < n/2) != (j < n/2) {
				d += 20
			}
			m.Set(i, j, d)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMedoids(m, 4, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9: retrieval under different thresholds ------------------

func BenchmarkFig9FindSimilar(b *testing.B) {
	e := env(b)
	for _, eps := range []float64{2, 8, 16} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			p := core.DefaultParams()
			p.DistThreshold = eps
			m, err := core.NewMatcher(e.DB, p)
			if err != nil {
				b.Fatal(err)
			}
			q := benchQuery(b, e, p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.FindSimilar(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatcherParallelism compares the sequential scan against the
// stream-parallel search at several worker counts (results are
// identical by construction; only the wall clock differs, and only on
// multi-core hardware). TestParallelSequentialEquivalence asserts the
// identity; core.parallel_speedup in bench/ is the same comparison as
// a layer metric.
func BenchmarkMatcherParallelism(b *testing.B) {
	e := env(b)
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			p := core.DefaultParams()
			p.Parallelism = par
			m, err := core.NewMatcher(e.DB, p)
			if err != nil {
				b.Fatal(err)
			}
			qs := ownSessions([]core.Query{benchQuery(b, e, p)}, 256)
			defer funnelOnly(b, repaired.Value())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.TopK(qs[i%len(qs)], 10, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// large is the shared large-corpus fixture: built once, with the settled
// heap it added measured around the build (before any test materialises
// a stream through Seq()).
var large struct {
	once sync.Once
	db   *store.DB
	heap uint64
	err  error
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// largeCorpus returns the 200-stream, ~100k-vertex corpus of the
// large-corpus benchmarks and tests, indexed as the server indexes.
// Callers only read it.
func largeCorpus(tb testing.TB) *store.DB {
	tb.Helper()
	large.once.Do(func() {
		cfg := signal.DefaultCohort()
		cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 100, 2, 300
		base := settledHeap()
		large.db, _, large.err = dataset.Build(cfg, fsm.DefaultConfig())
		if large.err != nil {
			return
		}
		large.heap = settledHeap() - base
	})
	if large.err != nil {
		tb.Fatal(large.err)
	}
	return large.db
}

// poolQueries cuts n 10-vertex query windows out of the corpus, made up
// the way bench/'s pool is: of every eight, six are regular breathing
// and two hold an irregular segment; every other one keeps its
// provenance (self-exclusion runs), the rest are asked as a stranger's.
func poolQueries(b testing.TB, db *store.DB, n int) []core.Query {
	b.Helper()
	streams := db.Streams()
	var qs []core.Query
	for s := 0; len(qs) < n && s < 8*len(streams); s++ {
		st := streams[7*s%len(streams)]
		seq := st.Seq()
		for at := 10 + 13*s%50; at+20 <= len(seq); at++ {
			w := seq[at : at+10]
			if strings.IndexByte(w.StateSignature(), plr.IRR.Byte()) >= 0 != (len(qs)%8 >= 6) {
				continue
			}
			if len(qs)%2 == 0 {
				qs = append(qs, core.NewQuery(w, st.PatientID, st.SessionID))
			} else {
				qs = append(qs, core.NewQuery(w, "", ""))
			}
			break
		}
	}
	if len(qs) < n {
		b.Fatalf("corpus yields %d of %d pool windows", len(qs), n)
	}
	return qs
}

// BenchmarkTopKLargeCorpus is the scan cost where the candidate funnel
// is nearly all of a query: 200 synthetic streams (~48k vertices, past
// the L2), top-10, sequential and at the default parallelism; allocs/op
// must stay a small constant whatever the corpus size. par=N asks one
// regular query over and over (from sessions of its own: ownSessions), so the corpus lines its candidates touch
// stay cached and the lower-bound pass looks cheaper than it is;
// pool/par=N asks 64 different windows round-robin, which is what
// bench/'s corpus_large does and the number to compare with it.
func BenchmarkTopKLargeCorpus(b *testing.B) {
	db := largeCorpus(b)
	run := func(b *testing.B, qs []core.Query) {
		for _, par := range []int{1, 0} {
			b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
				p := core.DefaultParams()
				p.Parallelism = par
				m, err := core.NewMatcher(db, p)
				if err != nil {
					b.Fatal(err)
				}
				defer funnelOnly(b, repaired.Value())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.TopK(qs[i%len(qs)], 10, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	run(b, ownSessions([]core.Query{benchQuery(b, &experiments.Env{DB: db}, core.DefaultParams())}, 256))
	b.Run("pool", func(b *testing.B) { run(b, ownSessions(poolQueries(b, db, 64), 256)) })
}

// repaired counts the top-k searches a matcher answered by repairing a
// kept answer instead of running the funnel over everything.
var repaired = obs.Default().Counter("stsmatch_matcher_repaired_total", "")

// ownSessions returns n queries, round-robin over qs, each asked from a
// session of its own that no stream holds. A matcher keeps its last 128
// top-k answers by query and repairs one asked again, so a benchmark of
// the funnel cycles through more distinct queries than that. Every
// stream stands in the same relation to all copies of a window, so they
// do the same work and have one answer.
func ownSessions(qs []core.Query, n int) []core.Query {
	out := make([]core.Query, n)
	for i := range out {
		out[i] = qs[i%len(qs)]
		out[i].SessionID += fmt.Sprintf("~%d", i)
	}
	return out
}

// funnelOnly fails b if a search since the repair count stood at before
// was a repair: the benchmark timed something other than the funnel.
func funnelOnly(b *testing.B, before uint64) {
	if n := repaired.Value() - before; n != 0 {
		b.Fatalf("%d of the searches were repairs of a kept answer", n)
	}
}

// BenchmarkPredictLargeCorpus is one online prediction over the same
// corpus: dynamic query from a stream's tail, threshold search,
// displacement 0.2 s ahead. A threshold search returns every match, so
// the benchmark reports how many it placed (matches/op) beside the time,
// and the time's two parts (search-us/op, fold-us/op); allocs/op must
// not grow with the match count. short/ asks from a stream 14 vertices
// into its session, whose query some 500 windows match: where a fixed
// cost of ranking or folding would show.
func BenchmarkPredictLargeCorpus(b *testing.B) {
	db := largeCorpus(b)
	run := func(b *testing.B, st *store.Stream, history int) {
		for _, par := range []int{1, 0} {
			b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
				p := core.DefaultParams()
				p.Parallelism = par
				m, err := core.NewMatcher(db, p)
				if err != nil {
					b.Fatal(err)
				}
				live := st.Seq()[:history]
				matched := 0
				var search, fold time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					qseq, _ := p.DynamicQuery(live)
					q := core.NewQuery(qseq, st.PatientID, st.SessionID)
					matches, err := m.FindSimilar(q, nil)
					if err != nil {
						b.Fatal(err)
					}
					t1 := time.Now()
					if _, err := m.PredictDisplacement(q, matches, 0, 0.2, 0); err != nil {
						b.Fatal(err)
					}
					search, fold = search+t1.Sub(t0), fold+time.Since(t1)
					matched += len(matches)
				}
				b.ReportMetric(float64(matched)/float64(b.N), "matches/op")
				b.ReportMetric(float64(search.Microseconds())/float64(b.N), "search-us/op")
				b.ReportMetric(float64(fold.Microseconds())/float64(b.N), "fold-us/op")
			})
		}
	}
	st := db.Streams()[0]
	run(b, st, st.Len()-2)
	b.Run("short", func(b *testing.B) { run(b, db.Streams()[3], 14) })
}

// TestLargeCorpusResultsPinned holds every result the large corpus gives
// to one checksum, at one worker and at the default: each match of
// FindSimilar and TopK over the 64 pool windows (patient, session, start,
// N, relation, distance bits, weight bits), then the position, the
// displacement and the next segment predicted from the threshold matches. A change to the
// store's layout, the distance kernel or the prediction fold must leave
// it where it is.
func TestLargeCorpusResultsPinned(t *testing.T) {
	const want = "4e84127ea313e565"
	db := largeCorpus(t)
	qs := poolQueries(t, db, 64)
	for _, par := range []int{1, 0} {
		p := core.DefaultParams()
		p.Parallelism = par
		m, err := core.NewMatcher(db, p)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		floats := func(xs []float64) {
			for _, x := range xs {
				fmt.Fprintf(h, "%x,", math.Float64bits(x))
			}
		}
		matches := func(ms []core.Match) {
			for _, mt := range ms {
				fmt.Fprintf(h, "%s/%s/%d/%d/%d/%x/%x;", mt.Stream.PatientID, mt.Stream.SessionID, mt.Start, mt.N,
					mt.Relation, math.Float64bits(mt.Distance), math.Float64bits(mt.Weight))
			}
		}
		for _, q := range qs {
			found, err := m.FindSimilar(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			matches(found)
			top, err := m.TopK(q, 10, nil)
			if err != nil {
				t.Fatal(err)
			}
			matches(top)
			if pr, err := m.PredictPosition(q, found, 0.2, 0); err == nil {
				floats(pr.Pos)
				floats([]float64{pr.MeanDist, float64(pr.NumMatches)})
			} else if err != core.ErrNoMatches {
				t.Fatal(err)
			}
			if disp, err := m.PredictDisplacement(q, found, 0.1, 0.3, 0); err == nil {
				floats(disp)
			} else if err != core.ErrNoMatches {
				t.Fatal(err)
			}
			if seg, err := m.PredictNextSegment(q, found, 0); err == nil {
				floats([]float64{float64(seg.State), seg.Duration, seg.Amplitude, float64(seg.NumMatches)})
			} else if err != core.ErrNoMatches {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("parallelism %d: results checksum %s, want %s", par, got, want)
		}
	}
}

// TestLargeCorpusHeapBudget is the column store's memory line: the
// settled heap the indexed large corpus adds, per stored vertex.
func TestLargeCorpusHeapBudget(t *testing.T) {
	db := largeCorpus(t)
	perVertex := float64(large.heap) / float64(db.NumVertices())
	t.Logf("%d vertices, %.2f MB settled heap, %.1f B/vertex", db.NumVertices(), float64(large.heap)/(1<<20), perVertex)
	if perVertex > 48 {
		t.Errorf("large corpus holds %.1f B of heap per vertex, budget 48", perVertex)
	}
}

// --- Section 7.5: efficiency claims ----------------------------------

// BenchmarkSegmentationPerPoint measures the online segmenter's
// per-sample cost ("constant space, linear time with respect to raw
// data points") on a 1-D stream and a 3-D one: a sample's secondary
// coordinates ride through the trend window beside the primary one.
// The spiky stream takes a spike about every twentieth sample, so about
// a tenth of its jumps cross the spike floor and pay for the limit.
func BenchmarkSegmentationPerPoint(b *testing.B) {
	for _, c := range []struct {
		name      string
		dims      int
		spikeProb float64
	}{
		{"dims=1", 1, 0},
		{"dims=3", 3, 0},
		{"spiky", 1, 0.05},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := signal.DefaultRespiration()
			cfg.Dims = c.dims
			cfg.IrregularProb = 0.01
			if c.spikeProb > 0 {
				cfg.SpikeProb = c.spikeProb
			}
			gen, err := signal.NewRespiration(cfg, 7)
			if err != nil {
				b.Fatal(err)
			}
			samples := gen.Generate(120)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg, err := fsm.New(fsm.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				for _, sm := range samples {
					if _, err := seg.Push(sm); err != nil {
						b.Fatal(err)
					}
				}
				seg.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(samples)), "ns/point")
		})
	}
}

// BenchmarkMatchLinear measures retrieval cost against growing database
// fractions ("linear time with respect to segmented line segments").
func BenchmarkMatchLinear(b *testing.B) {
	e := env(b)
	patients := e.DB.Patients()
	m, err := core.NewMatcher(e.DB, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, e, m.Params)
	for frac := 1; frac <= 4; frac++ {
		n := len(patients) * frac / 4
		if n < 1 {
			n = 1
		}
		restrict := map[string]bool{}
		verts := 0
		for _, p := range patients[:n] {
			restrict[p.Info.ID] = true
			for _, st := range p.Streams {
				verts += st.Len()
			}
		}
		b.Run(fmt.Sprintf("vertices=%d", verts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.FindSimilar(q, restrict); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictionLatency measures the full online loop the paper
// bounds at 30 ms: dynamic query generation + retrieval + prediction.
func BenchmarkPredictionLatency(b *testing.B) {
	e := env(b)
	m, err := core.NewMatcher(e.DB, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	st := e.DB.Streams()[0]
	seq := st.Seq()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		qseq, _ := m.Params.DynamicQuery(seq[:len(seq)-2])
		q := core.NewQuery(qseq, st.PatientID, st.SessionID)
		matches, err := m.FindSimilar(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.PredictPosition(q, matches, 0.2, 0); err != nil && err != core.ErrNoMatches {
			b.Fatal(err)
		}
	}
}

// --- Section 7.2: DTW cost justification -----------------------------

func BenchmarkDTWVsCoreDistance(b *testing.B) {
	e := env(b)
	p := core.DefaultParams()
	q := benchQuery(b, e, p)
	qv, err := baseline.Resample(q.Seq, 32, 0)
	if err != nil {
		b.Fatal(err)
	}
	var cand plr.Sequence
	for _, st := range e.DB.Streams() {
		ws := st.FindWindows(q.Seq.StateSignature())
		if len(ws) > 0 {
			cand = st.Window(ws[0], len(q.Seq))
			break
		}
	}
	if cand == nil {
		b.Skip("no candidate window")
	}
	cv, err := baseline.Resample(cand, 32, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("core-weighted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Distance(q.Seq, cand, core.SamePatient); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dtw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.DTW(qv, cv, 8)
		}
	})
}

// --- Candidate generation ------------------------------------------

func BenchmarkCandidateGeneration(b *testing.B) {
	e := env(b)
	st := e.DB.Streams()[0]
	seq := st.Seq()
	if len(seq) < 16 {
		b.Skip("stream too short")
	}
	sig := seq[:12].StateSignature()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.FindWindows(sig)
	}
}
