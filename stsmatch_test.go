package stsmatch_test

// Integration tests exercising the public API end to end, the way the
// examples and a downstream user would.

import (
	"math"
	"testing"

	"stsmatch"
	"stsmatch/gatingsim"
	"stsmatch/synth"
)

// buildSession segments one synthetic session into a fresh database.
func buildSession(t *testing.T, seed int64, dur float64) (*stsmatch.DB, *stsmatch.Stream) {
	t.Helper()
	cfg := synth.DefaultRespiration()
	cfg.IrregularProb = 0.005
	gen, err := synth.NewRespiration(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := stsmatch.SegmentAll(stsmatch.DefaultSegmenterConfig(), gen.Generate(dur))
	if err != nil {
		t.Fatal(err)
	}
	db := stsmatch.NewDB()
	p, err := db.AddPatient(stsmatch.PatientInfo{ID: "P01"})
	if err != nil {
		t.Fatal(err)
	}
	st := p.AddStream("P01-S01")
	if err := st.Append(seq...); err != nil {
		t.Fatal(err)
	}
	return db, st
}

func TestPublicPipelineEndToEnd(t *testing.T) {
	db, st := buildSession(t, 11, 120)
	params := stsmatch.DefaultParams()
	matcher, err := stsmatch.NewMatcher(db, params)
	if err != nil {
		t.Fatal(err)
	}
	seq := st.Seq()
	history := seq[:len(seq)-2]
	qseq, info := params.DynamicQuery(history)
	if len(qseq) < params.MinQueryVertices()-1 {
		t.Fatalf("query too short: %d", len(qseq))
	}
	_ = info
	query := stsmatch.NewQuery(qseq, "P01", "P01-S01")
	matches, err := matcher.FindSimilar(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches on a two-minute regular session")
	}
	pred, err := matcher.PredictPosition(query, matches, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := seq.PositionAt(query.Now + 0.2)
	if e := math.Abs(pred.Pos[0] - truth[0]); e > 2 {
		t.Errorf("prediction error %.2f mm too large", e)
	}
}

func TestPublicStreamingIngestion(t *testing.T) {
	// Push-by-push ingestion must equal batch segmentation.
	cfg := synth.DefaultRespiration()
	gen, err := synth.NewRespiration(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(45)

	batch, err := stsmatch.SegmentAll(stsmatch.DefaultSegmenterConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}

	seg, err := stsmatch.NewSegmenter(stsmatch.DefaultSegmenterConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := stsmatch.NewDB()
	p, _ := db.AddPatient(stsmatch.PatientInfo{ID: "P01"})
	st := p.AddStream("S01")
	for _, s := range samples {
		vs, err := seg.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(vs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(seg.Flush()...); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(batch) {
		t.Errorf("streaming %d vertices vs batch %d", st.Len(), len(batch))
	}
}

// TestPublicNonFiniteSampleRefused: a tracker that starts reporting NaN
// on one axis gets an error from the stream on the first vertex that
// carries it; what the stream already holds stays finite, and so does
// every prediction made from it.
func TestPublicNonFiniteSampleRefused(t *testing.T) {
	cfg := synth.DefaultRespiration()
	cfg.Dims, cfg.IrregularProb = 2, 0.005
	gen, err := synth.NewRespiration(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	samples := gen.Generate(270)
	seg, err := stsmatch.NewSegmenter(stsmatch.DefaultSegmenterConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := stsmatch.NewDB()
	p, _ := db.AddPatient(stsmatch.PatientInfo{ID: "P01"})
	st := p.AddStream("S01")
	var refused error
	for _, s := range samples {
		if s.T > 240 {
			s.Pos[1] = math.NaN() // the secondary axis: segmentation carries on
		}
		vs, err := seg.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(vs...); err != nil {
			refused = err
			break
		}
	}
	if refused == nil {
		t.Fatal("a vertex with a NaN coordinate was appended")
	}
	seq := st.Seq()
	for _, v := range seq {
		if math.IsNaN(v.Pos[0]) || math.IsNaN(v.Pos[1]) || v.T > 241 {
			t.Fatalf("stream holds %+v", v)
		}
	}
	params := stsmatch.DefaultParams()
	matcher, err := stsmatch.NewMatcher(db, params)
	if err != nil {
		t.Fatal(err)
	}
	qseq, _ := params.DynamicQuery(seq)
	pred, err := matcher.Predict(stsmatch.NewQuery(qseq, "P01", "S01"), 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred.Pos[0]) || math.IsNaN(pred.Pos[1]) || math.IsNaN(pred.MeanDist) {
		t.Errorf("prediction %+v", pred)
	}
}

func TestPublicClusterPatients(t *testing.T) {
	// Two slow-deep patients vs two fast-shallow patients must cluster
	// apart.
	db := stsmatch.NewDB()
	mk := func(id string, period, amp float64, seed int64) {
		cfg := synth.DefaultRespiration()
		cfg.Period = period
		cfg.Amplitude = amp
		cfg.IrregularProb = 0
		gen, err := synth.NewRespiration(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := stsmatch.SegmentAll(stsmatch.DefaultSegmenterConfig(), gen.Generate(60))
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.AddPatient(stsmatch.PatientInfo{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddStream(id + "-S1").Append(seq...); err != nil {
			t.Fatal(err)
		}
	}
	mk("deep1", 5, 20, 1)
	mk("deep2", 5.2, 19, 2)
	mk("fast1", 2.6, 9, 3)
	mk("fast2", 2.5, 10, 4)

	ccfg := stsmatch.DefaultClusterConfig()
	ccfg.QueryStride = 2
	cl, err := stsmatch.ClusterPatients(db, ccfg, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Assign[0] != cl.Assign[1] || cl.Assign[2] != cl.Assign[3] || cl.Assign[0] == cl.Assign[2] {
		t.Errorf("clustering failed to separate families: %v", cl.Assign)
	}

	// Stream and patient distances reflect the same structure.
	patients := db.Patients()
	dSame, err := stsmatch.PatientDistance(patients[0], patients[1], ccfg)
	if err != nil {
		t.Fatal(err)
	}
	dCross, err := stsmatch.PatientDistance(patients[0], patients[2], ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if dSame >= dCross {
		t.Errorf("family structure lost: same=%.3f cross=%.3f", dSame, dCross)
	}
}

func TestConcurrentIngestionAndMatching(t *testing.T) {
	// The deployment pattern: one goroutine appends a live stream
	// while others run retrieval and prediction against the shared
	// database. Run with -race in CI.
	db, live := buildSession(t, 21, 90)
	// A second historical stream gives the matchers stable work.
	cfg := synth.DefaultRespiration()
	gen, err := synth.NewRespiration(cfg, 22)
	if err != nil {
		t.Fatal(err)
	}
	histSeq, err := stsmatch.SegmentAll(stsmatch.DefaultSegmenterConfig(), gen.Generate(90))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.AddPatient(stsmatch.PatientInfo{ID: "P02"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.AddStream("P02-S01").Append(histSeq...); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 3)
	go func() { // writer: extend the live stream
		last := live.Seq()[live.Len()-1]
		for i := 0; i < 300; i++ {
			v := stsmatch.Vertex{
				T:     last.T + float64(i+1),
				Pos:   []float64{float64(i % 10)},
				State: stsmatch.State(i % 3),
			}
			if err := live.Append(v); err != nil {
				errCh <- err
				return
			}
		}
		close(stop)
	}()
	for w := 0; w < 2; w++ { // readers: match and predict continuously
		go func() {
			matcher, err := stsmatch.NewMatcher(db, stsmatch.DefaultParams())
			if err != nil {
				errCh <- err
				return
			}
			for {
				select {
				case <-stop:
					errCh <- nil
					return
				default:
				}
				seq := live.Seq()
				if len(seq) < 12 {
					continue
				}
				qseq, _ := matcher.Params.DynamicQuery(seq)
				q := stsmatch.NewQuery(qseq, "P01", "P01-S01")
				if _, err := matcher.FindSimilar(q, nil); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicFixedQueryHelper(t *testing.T) {
	_, st := buildSession(t, 5, 90)
	seq := st.Seq()
	q := stsmatch.FixedQuery(seq, 4)
	if len(q) != 13 {
		t.Errorf("FixedQuery(4) = %d vertices, want 13", len(q))
	}
}

func TestPublicGatingSimulation(t *testing.T) {
	cfg := synth.DefaultRespiration()
	cfg.IrregularProb = 0
	gen, err := synth.NewRespiration(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	truth := gen.Generate(60)
	w := gatingsim.Window{Lo: -3, Hi: 3}
	ideal, err := gatingsim.SimulateGating(truth, w, gatingsim.OraclePositioner(truth, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := gatingsim.SimulateGating(truth, w, gatingsim.LastObservedPositioner(truth, 0.3, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(ideal.Accuracy() == 1 && delayed.Accuracy() < 1) {
		t.Errorf("latency effect missing: ideal %.3f delayed %.3f", ideal.Accuracy(), delayed.Accuracy())
	}
}

func TestPublicSynthGeneralizations(t *testing.T) {
	hb, err := synth.NewHeartbeat(synth.DefaultHeartbeat(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Generate(10)) == 0 {
		t.Error("empty heartbeat")
	}
	arm, err := synth.NewRobotArm(synth.DefaultRobotArm(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(arm.Generate(10)) == 0 {
		t.Error("empty robot arm")
	}
	if len(synth.GenerateTide(synth.DefaultTide(), 24*3600, 1)) == 0 {
		t.Error("empty tide")
	}
	cohort, err := synth.GenerateCohort(synth.CohortConfig{
		NumPatients: 2, SessionsPer: 1, SessionDur: 10, Dims: 1, Seed: 1,
	})
	if err != nil || len(cohort) != 2 {
		t.Errorf("cohort: %v, %d", err, len(cohort))
	}
}
