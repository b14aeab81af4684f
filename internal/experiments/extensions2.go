package experiments

import (
	"fmt"
	"strings"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
	"stsmatch/internal/stats"
)

// Second batch of extension experiments: the FSM-guided segmenter
// versus a generic bottom-up PLA, and next-segment (frequency /
// amplitude) forecasting.

// SegmenterCompareResult contrasts the online FSM segmenter with the
// offline bottom-up PLA at an equal segment budget.
type SegmenterCompareResult struct {
	Segments     int
	FSMRMSE      float64
	BottomUpRMSE float64
	FSMIRRFrac   float64 // fraction of time marked IRR by the FSM
	EpisodeFrac  float64 // ground-truth fraction of time in episodes
	BUHasIRR     bool
}

// CompareSegmenters runs both algorithms over a fresh session with
// irregular episodes.
func CompareSegmenters(env *Env) (*SegmenterCompareResult, error) {
	cfg := signal.DefaultRespiration()
	cfg.IrregularProb = 0.05
	gen, err := signal.NewRespiration(cfg, 4242)
	if err != nil {
		return nil, err
	}
	samples := gen.Generate(180)
	episodes := gen.Episodes()

	fsmSeq, err := fsm.SegmentAll(fsm.DefaultConfig(), samples)
	if err != nil {
		return nil, err
	}
	buSeq, err := fsm.BottomUpSegment(fsm.BottomUpConfig{
		TargetSegments: fsmSeq.NumSegments(),
		PrimaryDim:     0,
		SlopeThreshold: fsm.DefaultConfig().SlopeThreshold,
	}, samples)
	if err != nil {
		return nil, err
	}
	fsmFid, err := plr.MeasureFidelity(fsmSeq, samples, 0)
	if err != nil {
		return nil, err
	}
	buFid, err := plr.MeasureFidelity(buSeq, samples, 0)
	if err != nil {
		return nil, err
	}
	var episodeTime float64
	for _, ep := range episodes {
		episodeTime += ep.End - ep.Start
	}
	return &SegmenterCompareResult{
		Segments:     fsmSeq.NumSegments(),
		FSMRMSE:      fsmFid.RMSE,
		BottomUpRMSE: buFid.RMSE,
		FSMIRRFrac:   plr.IRRFraction(fsmSeq),
		EpisodeFrac:  episodeTime / fsmSeq.Duration(),
		BUHasIRR:     strings.Contains(buSeq.StateString(), "R"),
	}, nil
}

// Table renders the comparison.
func (r *SegmenterCompareResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: FSM-guided online segmenter vs generic bottom-up PLA",
		Header: []string{"property", "FSM online", "bottom-up PLA"},
		Comment: "equal segment budgets; the generic PLA needs the whole signal up " +
			"front and carries no irregularity semantics — the model layer, not the " +
			"fitting, is what the paper's pipeline depends on",
	}
	t.AddRow("segments", fmt.Sprintf("%d", r.Segments), fmt.Sprintf("%d", r.Segments))
	t.AddRow("reconstruction RMSE (mm)", f3(r.FSMRMSE), f3(r.BottomUpRMSE))
	t.AddRow("online / streaming", "yes", "no")
	irr := "none"
	if r.BUHasIRR {
		irr = "spurious"
	}
	t.AddRow("IRR time flagged", pct(r.FSMIRRFrac), irr)
	t.AddRow("ground-truth episode time", pct(r.EpisodeFrac), pct(r.EpisodeFrac))
	return t
}

// ShapeHolds asserts the contrast: comparable reconstruction, and only
// the FSM marks irregularity (in rough agreement with ground truth).
func (r *SegmenterCompareResult) ShapeHolds() error {
	if r.FSMRMSE > r.BottomUpRMSE*2 {
		return fmt.Errorf("FSM reconstruction (%.3f) far worse than bottom-up (%.3f)",
			r.FSMRMSE, r.BottomUpRMSE)
	}
	if r.BUHasIRR {
		return fmt.Errorf("generic PLA unexpectedly produced IRR states")
	}
	if r.EpisodeFrac > 0.02 && r.FSMIRRFrac < r.EpisodeFrac/2 {
		return fmt.Errorf("FSM flagged %.1f%% IRR vs %.1f%% true episode time",
			100*r.FSMIRRFrac, 100*r.EpisodeFrac)
	}
	return nil
}

// ForecastResult evaluates next-segment duration and amplitude
// forecasting ("Future frequency, amplitude or position can be
// predicted", Section 4.3).
type ForecastResult struct {
	Forecasts    int
	DurErr       stats.Welford // |predicted - actual| next-segment duration (s)
	AmpErr       stats.Welford // |predicted - actual| next-segment amplitude (mm)
	StateHits    int           // forecast state == actual state
	MeanDuration float64       // actual mean segment duration, for context
	MeanAmp      float64
	// Naive baseline: predict the previous same-state segment's values.
	NaiveDurErr stats.Welford
	NaiveAmpErr stats.Welford
}

// SegmentForecasts replays each stream and forecasts the segment after
// each query from retrieved matches.
func SegmentForecasts(env *Env) (*ForecastResult, error) {
	params := core.DefaultParams()
	m, err := core.NewMatcher(env.DB, params)
	if err != nil {
		return nil, err
	}
	res := &ForecastResult{}
	var durAll, ampAll stats.Welford
	for _, st := range env.DB.Streams() {
		seq := st.Seq()
		for _, cut := range params.ReplayCuts(len(seq)-3, env.Scale.QueriesPerStream) {
			// Query ends exactly at vertex `cut`; the actual next
			// segment is seq[cut] -> seq[cut+1].
			prefix := seq[:cut+1]
			qseq, _ := params.DynamicQuery(prefix)
			q := core.NewQuery(qseq, st.PatientID, st.SessionID)
			matches, err := m.FindSimilar(q, nil)
			if err != nil {
				return nil, err
			}
			fc, err := m.PredictNextSegment(q, matches, 0)
			if err != nil {
				continue
			}
			actual := seq.SegmentAt(cut)
			res.Forecasts++
			res.DurErr.Add(abs(fc.Duration - actual.Duration))
			res.AmpErr.Add(abs(fc.Amplitude - actual.Amplitude()))
			if fc.State == actual.State {
				res.StateHits++
			}
			durAll.Add(actual.Duration)
			ampAll.Add(actual.Amplitude())

			// Naive baseline: the most recent same-state segment in
			// the query history.
			for i := cut - 1; i >= 0; i-- {
				if seq[i].State == actual.State && i+1 <= cut {
					prev := seq.SegmentAt(i)
					res.NaiveDurErr.Add(abs(prev.Duration - actual.Duration))
					res.NaiveAmpErr.Add(abs(prev.Amplitude() - actual.Amplitude()))
					break
				}
			}
		}
	}
	res.MeanDuration = durAll.Mean()
	res.MeanAmp = ampAll.Mean()
	return res, nil
}

// Table renders the forecast evaluation.
func (r *ForecastResult) Table() *Table {
	stateAcc := 0.0
	if r.Forecasts > 0 {
		stateAcc = float64(r.StateHits) / float64(r.Forecasts)
	}
	t := &Table{
		Title:  "Extension: next-segment forecasting (frequency & amplitude)",
		Header: []string{"quantity", "matched-history error", "naive last-cycle error"},
		Comment: fmt.Sprintf("%d forecasts; actual segments average %.2f s / %.1f mm; "+
			"FSA state predicted correctly %.0f%% of the time",
			r.Forecasts, r.MeanDuration, r.MeanAmp, 100*stateAcc),
	}
	t.AddRow("duration (s)", f3(r.DurErr.Mean()), f3(r.NaiveDurErr.Mean()))
	t.AddRow("amplitude (mm)", f3(r.AmpErr.Mean()), f3(r.NaiveAmpErr.Mean()))
	return t
}

// ShapeHolds asserts the forecasts carry signal: errors well below the
// segment scale and state accuracy far above chance.
func (r *ForecastResult) ShapeHolds() error {
	if r.Forecasts == 0 {
		return fmt.Errorf("no forecasts made")
	}
	if r.DurErr.Mean() > r.MeanDuration/2 {
		return fmt.Errorf("duration error %.3f too large vs mean %.3f",
			r.DurErr.Mean(), r.MeanDuration)
	}
	if r.AmpErr.Mean() > r.MeanAmp/2 {
		return fmt.Errorf("amplitude error %.3f too large vs mean %.3f",
			r.AmpErr.Mean(), r.MeanAmp)
	}
	if float64(r.StateHits) < 0.7*float64(r.Forecasts) {
		return fmt.Errorf("state accuracy %d/%d below 70%%", r.StateHits, r.Forecasts)
	}
	return nil
}
