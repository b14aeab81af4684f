package experiments

import (
	"fmt"

	"stsmatch/internal/baseline"
	"stsmatch/internal/core"
	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/stats"
)

// Extension experiments beyond the paper's own figures: the clinical
// predictor comparison its citation [24] performs, the PLR fidelity
// tradeoff behind the Section 3.1 claims, and a 3-D motion check.

// PredictorsResult compares prediction strategies across horizons on
// raw ground truth (not PLR truth — all strategies are scored against
// the actual future sample, the clinically relevant metric).
type PredictorsResult struct {
	Deltas       []float64
	LastObserved []float64
	Linear       []float64
	Subsequence  []float64
	Evaluated    int
}

// Predictors replays each session: at evenly spaced times t it asks
// each strategy for the position at t+delta and scores it against the
// true raw sample there.
func Predictors(env *Env) (*PredictorsResult, error) {
	deltas := []float64{0.1, 0.2, 0.3, 0.5}
	res := &PredictorsResult{Deltas: deltas}
	lastErr := make([]stats.Welford, len(deltas))
	linErr := make([]stats.Welford, len(deltas))
	subErr := make([]stats.Welford, len(deltas))

	params := core.DefaultParams()
	for pi, pd := range env.Cohort {
		if pi >= 6 {
			break // a subset keeps the replay fast; errors are averaged anyway
		}
		patient := env.DB.Patient(pd.Profile.ID)
		for si, sess := range pd.Sessions {
			if si >= 1 {
				break
			}
			stream := patient.Streams[si]
			samples := sess.Samples
			truth := func(t float64) (float64, bool) {
				// Nearest raw sample at or after t.
				lo, hi := 0, len(samples)-1
				if t > samples[hi].T || t < samples[0].T {
					return 0, false
				}
				for lo < hi {
					mid := (lo + hi) / 2
					if samples[mid].T < t {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				return samples[lo].Pos[0], true
			}

			ex, err := baseline.NewExtrapolator(0.4, 0)
			if err != nil {
				return nil, err
			}
			m, err := core.NewMatcher(env.DB, params)
			if err != nil {
				return nil, err
			}
			seq := stream.Seq()

			// Feed the extrapolator online; every ~2 s, evaluate all
			// strategies at each horizon.
			nextEval := 30.0 // leave warm-up history
			for _, sm := range samples {
				if err := ex.Observe(sm); err != nil {
					return nil, err
				}
				if sm.T < nextEval {
					continue
				}
				nextEval = sm.T + 2

				// Subsequence matching uses the PLR history up to now.
				cut := seq.IndexAtTime(sm.T)
				if cut < params.MinQueryVertices() {
					continue
				}
				qseq, _ := params.DynamicQuery(seq[:cut+1])
				q := core.NewQuery(qseq, stream.PatientID, stream.SessionID)
				matches, err := m.FindSimilar(q, nil)
				if err != nil {
					return nil, err
				}

				for di, d := range deltas {
					want, ok := truth(sm.T + d)
					if !ok {
						continue
					}
					res.Evaluated++
					lastErr[di].Add(abs(sm.Pos[0] - want))
					if p, ok := ex.Predict(sm.T + d); ok {
						linErr[di].Add(abs(p - want))
					}
					// Anchor at the newest raw observation and add the
					// matched displacement (the deployable estimator;
					// see examples/gating).
					if disp, err := m.PredictDisplacement(q, matches, sm.T-q.Now, sm.T+d-q.Now, 0); err == nil {
						subErr[di].Add(abs(sm.Pos[0] + disp[0] - want))
					}
				}
			}
		}
	}
	for di := range deltas {
		res.LastObserved = append(res.LastObserved, lastErr[di].Mean())
		res.Linear = append(res.Linear, linErr[di].Mean())
		res.Subsequence = append(res.Subsequence, subErr[di].Mean())
	}
	return res, nil
}

// Table renders the predictor comparison.
func (r *PredictorsResult) Table() *Table {
	t := &Table{
		Title:  "Extension: predictor comparison on raw ground truth",
		Header: []string{"delta(ms)", "last observed", "linear extrap", "subseq matching"},
		Comment: "the clinical comparison of the paper's citation [24]; expected shape: " +
			"linear wins at very short horizons, subsequence matching wins as the " +
			"horizon approaches a breathing phase",
	}
	for i, d := range r.Deltas {
		t.AddRow(fmt.Sprintf("%.0f", d*1000),
			f3(r.LastObserved[i]), f3(r.Linear[i]), f3(r.Subsequence[i]))
	}
	return t
}

// ShapeHolds asserts that subsequence matching beats the no-predictor
// baseline at every horizon and beats linear extrapolation at the
// longest horizon (where the linear model diverges).
func (r *PredictorsResult) ShapeHolds() error {
	for i := range r.Deltas {
		if r.Subsequence[i] >= r.LastObserved[i] {
			return fmt.Errorf("subsequence (%.3f) not better than last-observed (%.3f) at %.0f ms",
				r.Subsequence[i], r.LastObserved[i], r.Deltas[i]*1000)
		}
	}
	last := len(r.Deltas) - 1
	if r.Subsequence[last] >= r.Linear[last] {
		return fmt.Errorf("subsequence (%.3f) not better than linear (%.3f) at %.0f ms",
			r.Subsequence[last], r.Linear[last], r.Deltas[last]*1000)
	}
	return nil
}

// FidelityResult quantifies the three Section 3.1 claims for the PLR:
// it "reduces the size of the raw data" (compression), "lowers the
// dimensionality of a subsequence" (segments per cycle), and "filters
// out noise" (reconstruction error bounded well below the motion
// amplitude, cardiac ripple and spikes absent from the representation).
type FidelityResult struct {
	Compression  float64
	SegsPerCycle float64
	RMSE         float64
	MaxAbsErr    float64
	Amplitude    float64
	RMSEFraction float64 // RMSE / amplitude
	CleanRMSE    float64 // PLR vs the noise-free signal
}

// Fidelity measures PLR fidelity on a noisy 120 s session and on its
// noise-free twin (same seed, same cycle structure, no cardiac or
// measurement noise), so the noise-filtering claim is directly
// testable: the PLR of the noisy signal should approximate the *clean*
// signal about as well as the noisy one — the ripple it drops was
// noise.
func Fidelity(env *Env) (*FidelityResult, error) {
	cfg := signal.DefaultRespiration()
	cfg.IrregularProb = 0
	cfg.SpikeProb = 0 // spikes draw extra randomness; keep twins aligned
	noisy, err := signal.NewRespiration(cfg, 777)
	if err != nil {
		return nil, err
	}
	cleanCfg := cfg
	cleanCfg.NoiseStd = 0
	cleanCfg.CardiacAmp = 0
	clean, err := signal.NewRespiration(cleanCfg, 777)
	if err != nil {
		return nil, err
	}
	noisySamples := noisy.Generate(120)
	cleanSamples := clean.Generate(120)

	seq, err := fsm.SegmentAll(fsm.DefaultConfig(), noisySamples)
	if err != nil {
		return nil, err
	}
	fNoisy, err := plr.MeasureFidelity(seq, noisySamples, 0)
	if err != nil {
		return nil, err
	}
	fClean, err := plr.MeasureFidelity(seq, cleanSamples, 0)
	if err != nil {
		return nil, err
	}
	cycles := seq.CycleCount()
	if cycles == 0 {
		return nil, fmt.Errorf("plr-fidelity: no cycles detected")
	}
	return &FidelityResult{
		Compression:  fNoisy.Compression,
		SegsPerCycle: float64(seq.NumSegments()) / float64(cycles),
		RMSE:         fNoisy.RMSE,
		MaxAbsErr:    fNoisy.MaxAbsErr,
		Amplitude:    cfg.Amplitude,
		RMSEFraction: fNoisy.RMSE / cfg.Amplitude,
		CleanRMSE:    fClean.RMSE,
	}, nil
}

// Table renders the fidelity report.
func (r *FidelityResult) Table() *Table {
	t := &Table{
		Title:  "Extension: PLR fidelity (Section 3.1 claims quantified)",
		Header: []string{"claim", "measure", "value"},
		Comment: "a 3-segment-per-cycle PLR deliberately keeps structure, not waveform " +
			"detail; reconstruction error is within-segment curvature, far below the " +
			"motion amplitude, and the PLR tracks the clean signal as well as the noisy one",
	}
	t.AddRow("reduces size", "compression", f1(r.Compression)+"x")
	t.AddRow("lowers dimensionality", "segments/cycle", f2(r.SegsPerCycle))
	t.AddRow("filters noise", "RMSE vs noisy signal (mm)", f3(r.RMSE))
	t.AddRow("", "RMSE vs clean signal (mm)", f3(r.CleanRMSE))
	t.AddRow("", "RMSE / amplitude", pct(r.RMSEFraction))
	t.AddRow("", "max |error| (mm)", f3(r.MaxAbsErr))
	return t
}

// ShapeHolds asserts the three claims.
func (r *FidelityResult) ShapeHolds() error {
	if r.Compression < 15 {
		return fmt.Errorf("compression %.1fx too low", r.Compression)
	}
	if r.SegsPerCycle < 2.2 || r.SegsPerCycle > 4.5 {
		return fmt.Errorf("segments per cycle %.2f outside the 3-state model's range", r.SegsPerCycle)
	}
	if r.RMSEFraction > 0.3 {
		return fmt.Errorf("RMSE is %.0f%% of the amplitude", 100*r.RMSEFraction)
	}
	// Noise filtering: the PLR should sit about as close to the clean
	// signal as to the noisy one (the dropped ripple was noise, not
	// structure).
	if r.CleanRMSE > r.RMSE*1.1 {
		return fmt.Errorf("PLR fits noise better than signal: clean %.3f vs noisy %.3f",
			r.CleanRMSE, r.RMSE)
	}
	return nil
}

// Dims3Result verifies that the pipeline is dimension-agnostic: a 3-D
// cohort predicts all three axes with SI the dominant error axis.
type Dims3Result struct {
	MeanErr [3]float64
	Queries int
}

// Dims3 evaluates prediction on a small 3-D cohort.
func Dims3(env *Env) (*Dims3Result, error) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients = 4
	cfg.SessionsPer = 2
	cfg.SessionDur = 60
	cfg.Dims = 3
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	m, err := core.NewMatcher(db, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	res := &Dims3Result{}
	var errW [3]stats.Welford
	opts := core.EvalOptions{Deltas: []float64{0.2}, QueriesPerStream: 6}
	_, err = m.Replay(opts, nil, func(a core.Attempt) {
		if !a.Predicted {
			return
		}
		res.Queries++
		for k := 0; k < 3; k++ {
			errW[k].Add(abs(a.Pred.Pos[k] - a.Truth[k]))
		}
	})
	if err != nil {
		return nil, err
	}
	for k := 0; k < 3; k++ {
		res.MeanErr[k] = errW[k].Mean()
	}
	return res, nil
}

// Table renders the 3-D check.
func (r *Dims3Result) Table() *Table {
	t := &Table{
		Title:  "Extension: 3-D motion prediction (SI / AP / LR)",
		Header: []string{"axis", "mean error (mm)"},
		Comment: fmt.Sprintf("%d predictions; the paper's model \"can work for any "+
			"n-dimensional space\" — secondary axes carry attenuated motion and "+
			"attenuated error", r.Queries),
	}
	for k, name := range []string{"SI", "AP", "LR"} {
		t.AddRow(name, f3(r.MeanErr[k]))
	}
	return t
}

// ShapeHolds asserts predictions exist and axis errors follow the
// attenuation ordering (SI >= AP >= LR, loosely).
func (r *Dims3Result) ShapeHolds() error {
	if r.Queries == 0 {
		return fmt.Errorf("no 3-D predictions made")
	}
	if r.MeanErr[1] > r.MeanErr[0]*1.2 || r.MeanErr[2] > r.MeanErr[1]*1.2 {
		return fmt.Errorf("axis error ordering violated: %v", r.MeanErr)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
