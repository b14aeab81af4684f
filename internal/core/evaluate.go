package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"stsmatch/internal/plr"
	"stsmatch/internal/stats"
	"stsmatch/internal/store"
)

// This file implements the prediction-quality evaluation protocol of
// Section 7: replay each stored stream, cut it at many points, build a
// query subsequence from the history before the cut, predict the
// position delta seconds ahead, and compare with the PLR value there
// ("the mean difference between the predicted positions and PLR values
// is used to measure the quality of prediction").

// EvalOptions controls one evaluation sweep.
type EvalOptions struct {
	// Deltas are the prediction horizons in seconds (the paper sweeps
	// 0..300 ms).
	Deltas []float64

	// QueriesPerStream is how many evenly spaced cut points are
	// evaluated per stream.
	QueriesPerStream int

	// FixedCycles selects the fixed-length query baseline when > 0;
	// 0 uses stability-driven dynamic query generation (Section 4.1).
	FixedCycles int

	// MinMatches forwards to prediction (<= 0 uses the default).
	MinMatches int

	// Restrict, when non-nil, limits retrieval to the listed patients
	// (cluster-restricted prediction, Section 5.3). Keyed by the
	// query's patient: RestrictFor returns the allowed set.
	RestrictFor func(patientID string) map[string]bool
}

// DefaultEvalOptions returns the sweep used by the experiments: eleven
// horizons from 0 to 300 ms (one imaging frame at 30 Hz ≈ 33 ms).
func DefaultEvalOptions() EvalOptions {
	deltas := make([]float64, 0, 10)
	for ms := 33; ms <= 330; ms += 33 {
		deltas = append(deltas, float64(ms)/1000)
	}
	return EvalOptions{
		Deltas:           deltas,
		QueriesPerStream: 12,
	}
}

// DeltaResult aggregates prediction error at one horizon.
type DeltaResult struct {
	Delta       float64
	Err         stats.Welford // |predicted - PLR truth| on the primary axis (mm)
	Attempts    int           // prediction attempts
	Predictions int           // attempts that produced a prediction
}

// MeanError returns the mean absolute error at this horizon.
func (d DeltaResult) MeanError() float64 { return d.Err.Mean() }

// Coverage returns the fraction of attempts that yielded a prediction
// (Figure 9's second axis: a tighter threshold predicts less often).
func (d DeltaResult) Coverage() float64 {
	if d.Attempts == 0 {
		return 0
	}
	return float64(d.Predictions) / float64(d.Attempts)
}

// EvalResult is a full evaluation sweep outcome.
type EvalResult struct {
	PerDelta []DeltaResult
	// QueryLen aggregates the query lengths used (vertices), for the
	// Figure 7 experiments.
	QueryLen stats.Welford
	// StableQueries counts queries whose stability strip halted on a
	// stable window.
	StableQueries int
	TotalQueries  int
}

// MeanError returns the error averaged over all horizons (Figure 6c's
// y-axis).
func (r EvalResult) MeanError() float64 {
	var w stats.Welford
	for _, d := range r.PerDelta {
		w.Merge(d.Err)
	}
	return w.Mean()
}

// Coverage returns the overall prediction coverage.
func (r EvalResult) Coverage() float64 {
	var att, pred int
	for _, d := range r.PerDelta {
		att += d.Attempts
		pred += d.Predictions
	}
	if att == 0 {
		return 0
	}
	return float64(pred) / float64(att)
}

// Attempt is one prediction attempt of the replay: one cut of one stream
// at one horizon.
type Attempt struct {
	Stream *store.Stream
	Query  Query
	Info   QueryInfo // zero for a fixed-length query
	Delta  float64

	// Predicted is false when the matches supported no prediction
	// (ErrNoMatches); Pred, Truth and AbsErr are then zero.
	Predicted bool
	Pred      Prediction
	Truth     []float64 // the PLR position at Query.Now + Delta
	AbsErr    float64   // |Pred - Truth| on the primary axis (mm)
}

// ReplayCuts returns the cut vertices of a replayed stream: n evenly
// spaced indices from the first that leaves room for the longest query up
// to, not including, end. It returns nil when there is no such index.
func (p Params) ReplayCuts(end, n int) []int {
	minCut := p.MaxQueryVertices() + 2
	if minCut >= end {
		return nil
	}
	cuts := make([]int, n)
	for qi := range cuts {
		cuts[qi] = minCut + (end-minCut)*qi/n
	}
	return cuts
}

// Evaluate runs the replay protocol over every stream in the matcher's
// database. Streams are evaluated in parallel (one worker-local
// matcher each — a Matcher is not safe for concurrent use) and merged
// in stream order, so results are deterministic regardless of
// parallelism.
func (m *Matcher) Evaluate(opts EvalOptions) (EvalResult, error) {
	return m.replay(opts, runtime.GOMAXPROCS(0), nil, nil)
}

// Replay is Evaluate one stream at a time, in stream order, for callers
// that vary the protocol's one free part or watch it run. retrieve
// supplies the matches each query predicts from (nil: FindSimilar under
// opts.RestrictFor) and may carry state from one query to the next; each,
// when non-nil, sees every attempt as it is scored.
func (m *Matcher) Replay(opts EvalOptions, retrieve func(Query) ([]Match, error), each func(Attempt)) (EvalResult, error) {
	return m.replay(opts, 1, retrieve, each)
}

// replay is the driver behind both: workers goroutines, a matcher each,
// take streams off a queue, and the per-stream results merge in stream
// order.
func (m *Matcher) replay(opts EvalOptions, workers int, retrieve func(Query) ([]Match, error), each func(Attempt)) (EvalResult, error) {
	if len(opts.Deltas) == 0 {
		return EvalResult{}, fmt.Errorf("core: evaluation needs at least one delta")
	}
	if opts.QueriesPerStream <= 0 {
		opts.QueriesPerStream = 12
	}
	maxDelta := opts.Deltas[0]
	for _, d := range opts.Deltas[1:] {
		if d > maxDelta {
			maxDelta = d
		}
	}

	streams := m.DB.Streams()
	partials := make([]EvalResult, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	next := make(chan int)
	if workers > len(streams) && len(streams) > 0 {
		workers = len(streams)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &Matcher{DB: m.DB, Params: m.Params}
			find := retrieve
			if find == nil {
				find = func(q Query) ([]Match, error) {
					var restrict map[string]bool
					if opts.RestrictFor != nil {
						restrict = opts.RestrictFor(q.PatientID)
					}
					return local.FindSimilar(q, restrict)
				}
			}
			for i := range next {
				partials[i], errs[i] = local.evaluateStream(streams[i], opts, maxDelta, find, each)
			}
		}()
	}
	for i := range streams {
		next <- i
	}
	close(next)
	wg.Wait()

	res := EvalResult{PerDelta: make([]DeltaResult, len(opts.Deltas))}
	for i, d := range opts.Deltas {
		res.PerDelta[i].Delta = d
	}
	for i := range streams {
		if errs[i] != nil {
			return EvalResult{}, errs[i]
		}
		p := partials[i]
		if len(p.PerDelta) == 0 {
			continue // stream too short to evaluate
		}
		for di := range res.PerDelta {
			res.PerDelta[di].Attempts += p.PerDelta[di].Attempts
			res.PerDelta[di].Predictions += p.PerDelta[di].Predictions
			res.PerDelta[di].Err.Merge(p.PerDelta[di].Err)
		}
		res.QueryLen.Merge(p.QueryLen)
		res.StableQueries += p.StableQueries
		res.TotalQueries += p.TotalQueries
	}
	return res, nil
}

// evaluateStream replays one stream's cut points: the query ends at the cut
// vertex, and truth must exist maxDelta beyond it.
func (m *Matcher) evaluateStream(st *store.Stream, opts EvalOptions, maxDelta float64, retrieve func(Query) ([]Match, error), each func(Attempt)) (EvalResult, error) {
	seq := st.Seq()
	cuts := m.Params.ReplayCuts(len(seq)-1, opts.QueriesPerStream)
	if len(cuts) == 0 || cuts[0] == len(seq)-2 {
		// Too short: no cut, or none but the final segment's first
		// vertex. PerDelta stays empty.
		return EvalResult{}, nil
	}
	res := EvalResult{PerDelta: make([]DeltaResult, len(opts.Deltas))}
	for i, d := range opts.Deltas {
		res.PerDelta[i].Delta = d
	}
	for _, cut := range cuts {
		prefix := seq[:cut+1]
		now := seq[cut].T
		if _, inside := seq.PositionAt(now + maxDelta); !inside {
			continue
		}

		var qseq plr.Sequence
		var info QueryInfo
		if opts.FixedCycles > 0 {
			qseq = FixedQuery(prefix, opts.FixedCycles)
		} else {
			qseq, info = m.Params.DynamicQuery(prefix)
			if info.Stable {
				res.StableQueries++
			}
		}
		res.TotalQueries++
		res.QueryLen.Add(float64(len(qseq)))

		q := NewQuery(qseq, st.PatientID, st.SessionID)
		matches, err := retrieve(q)
		if err != nil {
			return EvalResult{}, err
		}
		for di, delta := range opts.Deltas {
			d := &res.PerDelta[di]
			d.Attempts++
			a := Attempt{Stream: st, Query: q, Info: info, Delta: delta}
			pred, err := m.PredictPosition(q, matches, delta, opts.MinMatches)
			if err != nil && !errors.Is(err, ErrNoMatches) {
				return EvalResult{}, err
			}
			if truth, inside := seq.PositionAt(now + delta); err == nil && inside {
				a.Predicted, a.Pred, a.Truth = true, pred, truth
				a.AbsErr = math.Abs(pred.Pos[0] - truth[0])
				d.Predictions++
				d.Err.Add(a.AbsErr)
			}
			if each != nil {
				each(a)
			}
		}
	}
	return res, nil
}
