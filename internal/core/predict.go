package core

import (
	"context"
	"errors"
	"slices"
	"sort"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// This file implements Section 4.3: online prediction of future tumor
// position (and, analogously, of the next segment's duration and
// amplitude) from retrieved similar subsequences.
//
// The immediate future of every historical subsequence is known. Each
// match C_j contributes the displacement its stream took delta seconds
// after C_j's last vertex, measured relative to C_j's first vertex;
// the prediction anchors that weighted-average displacement at the
// query's own first vertex:
//
//	p(now+delta) = pFirst(Q) + sum_j w'_j (f_j - pFirst(C_j)) / sum_j w'_j

// ErrNoMatches is returned when no similar subsequence usable for
// prediction was retrieved.
var ErrNoMatches = errors.New("core: no similar subsequences to predict from")

// MinMatchesForPrediction is the default floor on the number of
// retrieved subsequences required before a prediction is issued; the
// paper predicts "only if there are a certain number of retrieved
// subsequences".
const MinMatchesForPrediction = 3

// Prediction is the result of one position prediction.
type Prediction struct {
	Pos        []float64 // predicted position at Now + Delta
	Delta      float64   // prediction horizon (s)
	NumMatches int       // matches that contributed
	MeanDist   float64   // mean distance of contributing matches
}

// PredictPosition predicts the target position delta seconds after the
// query's current time using the already-retrieved matches. Matches
// whose streams do not extend delta beyond their window are skipped
// (their future is unknown). minMatches <= 0 uses
// MinMatchesForPrediction.
func (m *Matcher) PredictPosition(q Query, matches []Match, delta float64, minMatches int) (Prediction, error) {
	if minMatches <= 0 {
		minMatches = MinMatchesForPrediction
	}
	if len(q.Seq) == 0 {
		return Prediction{}, ErrTooShort
	}
	dims := q.Seq.Dims()
	buf := make([]float64, 2*dims)
	acc, f := buf[:dims], buf[dims:]
	var wsum, dsum float64
	used := 0
	for _, mt := range matches {
		// One view of the stream per match; the future point lies a
		// horizon past the window's last vertex, so look from there.
		ts, pos, d := mt.Stream.Track()
		end := mt.Start + mt.N - 1
		if !positionFrom(ts, pos, d, f, ts[end]+delta, end) {
			continue // stream ends before the future point
		}
		at := mt.Start
		if m.Params.AnchorAtQueryEnd {
			at = end
		}
		anchor := pos[at*dims:]
		for k := 0; k < dims; k++ {
			acc[k] += mt.Weight * (f[k] - anchor[k])
		}
		wsum += mt.Weight
		dsum += mt.Distance
		used++
	}
	if used < minMatches || wsum == 0 {
		return Prediction{}, ErrNoMatches
	}
	out := make([]float64, dims)
	qAnchor := q.Seq[0].Pos
	if m.Params.AnchorAtQueryEnd {
		qAnchor = q.Seq[len(q.Seq)-1].Pos
	}
	for k := 0; k < dims; k++ {
		out[k] = qAnchor[k] + acc[k]/wsum
	}
	return Prediction{
		Pos:        out,
		Delta:      delta,
		NumMatches: used,
		MeanDist:   dsum / float64(used),
	}, nil
}

// Predict runs the full online pipeline for one horizon: retrieve
// similar subsequences for the query, then predict the position delta
// seconds ahead.
func (m *Matcher) Predict(q Query, delta float64, restrict map[string]bool) (Prediction, error) {
	matches, err := m.FindSimilar(q, restrict)
	if err != nil {
		return Prediction{}, err
	}
	return m.PredictPosition(q, matches, delta, 0)
}

// PredictDisplacement estimates the displacement of the target between
// the horizons d1 and d2 (seconds after the query's current time,
// d2 > d1 >= 0) as the weighted average of the corresponding
// displacement in each match's stream. It is the estimator a
// latency-compensating controller needs: the newest *observation* is
// from d1 in the past, and adding the predicted displacement to it
// forecasts the present — "if treatment is based on the last observed
// position rather than the current position, this latency will reduce
// the effectiveness" (Section 1).
func (m *Matcher) PredictDisplacement(q Query, matches []Match, d1, d2 float64, minMatches int) ([]float64, error) {
	if minMatches <= 0 {
		minMatches = MinMatchesForPrediction
	}
	if len(q.Seq) == 0 {
		return nil, ErrTooShort
	}
	dims := q.Seq.Dims()
	buf := make([]float64, 3*dims)
	acc, a, b := buf[:dims:dims], buf[dims:2*dims], buf[2*dims:]
	var wsum float64
	used := 0
	for _, mt := range matches {
		ts, pos, d := mt.Stream.Track()
		end := mt.Start + mt.N - 1
		if !positionFrom(ts, pos, d, a, ts[end]+d1, end) || !positionFrom(ts, pos, d, b, ts[end]+d2, end) {
			continue
		}
		for k := 0; k < dims; k++ {
			acc[k] += mt.Weight * (b[k] - a[k])
		}
		wsum += mt.Weight
		used++
	}
	if used < minMatches || wsum == 0 {
		return nil, ErrNoMatches
	}
	for k := range acc {
		acc[k] /= wsum
	}
	return acc, nil
}

// PredictDisplacementCtx is the server's estimator in one funnel pass:
// the displacement PredictDisplacement would estimate from
// FindSimilarCtx's matches, bit for bit, together with the number of
// those matches and their mean distance (0 without any). No Match is
// built: each search worker records an accepted window's displacement
// between the horizons while the window's columns are at hand, and the
// hits, placed in the result order, are folded straight into the sums.
// A prediction from too few matches is ErrNoMatches, still with the
// count and mean distance. The context carries the trace, as for
// FindSimilarCtx.
func (m *Matcher) PredictDisplacementCtx(ctx context.Context, q Query, d1, d2 float64, minMatches int) (disp []float64, matches int, meanDist float64, err error) {
	if minMatches <= 0 {
		minMatches = MinMatchesForPrediction
	}
	f := &m.fc
	f.d1, f.d2 = d1, d2
	if _, err := m.search(ctx, q, nil, 0, m.Params.DistThreshold, f); err != nil {
		return nil, 0, 0, err
	}
	if f.matches > 0 {
		meanDist = f.dsum / float64(f.matches)
	}
	if f.used < minMatches || f.wsum == 0 {
		return nil, f.matches, meanDist, ErrNoMatches
	}
	disp = make([]float64, len(f.acc))
	for k, a := range f.acc {
		disp[k] = a / f.wsum
	}
	return disp, f.matches, meanDist, nil
}

// forecast is the collector of a PredictDisplacementCtx search. Its
// sums live in the Matcher and are cleared by every fold, so a search
// that panicked leaves nothing behind for the next.
type forecast struct {
	d1, d2     float64   // the horizons, seconds past each window's last vertex
	acc        []float64 // Σ w·(b−a), per coordinate
	wsum, dsum float64   // Σ w over the hits with a future; Σ distance over all
	used       int       // hits with a future
	matches    int
	refs       []hitRef  // the hits in order
	ab         []float64 // refold's two positions
}

// future records, beside the hit worker w just accepted — a window
// ending at vertex end of the stream with columns ts and pos — whether
// the stream reaches both horizons past that vertex and, if it does, its
// displacement between them. disp grows by dims values per hit either
// way, so hit i's are disp[i*dims:].
func (f *forecast) future(w *workerState, ts, pos []float64, dims, end int) {
	at := len(w.disp)
	w.disp = slices.Grow(w.disp, 2*dims)[:at+2*dims]
	ok := f.between(ts, pos, dims, end, w.disp[at:])
	w.fut, w.disp = append(w.fut, ok), w.disp[:at+dims]
}

// between writes into ab[:dims] the displacement of the stream with
// columns ts and pos between the horizons past vertex end, using
// ab[dims:2*dims] as scratch, and reports whether the stream reaches
// both.
func (f *forecast) between(ts, pos []float64, dims, end int, ab []float64) bool {
	a, b := ab[:dims], ab[dims:2*dims]
	if !positionFrom(ts, pos, dims, a, ts[end]+f.d1, end) || !positionFrom(ts, pos, dims, b, ts[end]+f.d2, end) {
		return false
	}
	for k := range a {
		a[k] = b[k] - a[k]
	}
	return true
}

// fold puts the workers' hits in order and sums them in that order,
// which is matchCmp's — the order of FindSimilar's result.
// PredictDisplacement and a mean over that result add the same terms
// (each weight computed as Match.Weight is) in the same order, so the
// sums come out the same to the bit.
func (f *forecast) fold(m *Matcher, pl *queryPlan, workers []*workerState, streams []*store.Stream) {
	n := hitCount(workers)
	f.refs = slices.Grow(f.refs[:0], n)[:n]
	m.order(pl, workers, streams, nil, f.refs)

	dims := f.begin(pl, n)
	for _, r := range f.refs {
		w := workers[r.wk]
		var d []float64
		if w.fut[r.i] {
			d = w.disp[int(r.i)*dims:][:dims]
		}
		f.add(pl.ws[r.rel], w.hits[r.i].dist, d)
	}
}

// refold is fold over a kept retrieval: hits already in order, each
// window's future read off its stream at the current horizons.
func (f *forecast) refold(pl *queryPlan, streams []*store.Stream, hits []hit) {
	dims := f.begin(pl, len(hits))
	f.ab = slices.Grow(f.ab[:0], 2*dims)[:2*dims]
	for _, h := range hits {
		st := streams[h.ord]
		ts, pos, _ := st.Track()
		var d []float64
		if f.between(ts, pos, dims, int(h.start)+pl.n-1, f.ab) {
			d = f.ab[:dims]
		}
		f.add(pl.ws[relationOf(pl.q, st)], h.dist, d)
	}
}

// begin clears the sums for a fold of n hits and returns the query's
// dimensionality.
func (f *forecast) begin(pl *queryPlan, n int) int {
	dims := pl.q.Seq.Dims()
	f.acc = slices.Grow(f.acc[:0], dims)[:dims]
	clear(f.acc)
	f.wsum, f.dsum, f.used, f.matches = 0, 0, 0, n
	return dims
}

// add sums the next hit in order: its distance, and when its stream
// reaches both horizons (d, its displacement, non-nil) its weight
// ws/(1+dist) — Match.Weight — and weighted displacement.
func (f *forecast) add(ws, dist float64, d []float64) {
	f.dsum += dist
	if d == nil {
		return
	}
	wt := ws / (1 + dist)
	for k := range f.acc {
		f.acc[k] += wt * d[k]
	}
	f.wsum += wt
	f.used++
}

// SegmentForecast is the predicted shape of the breathing segment that
// follows the query (frequency and amplitude prediction, which the
// paper notes is analogous to position prediction).
type SegmentForecast struct {
	State      plr.State
	Duration   float64
	Amplitude  float64
	NumMatches int
}

// PredictNextSegment forecasts the duration and amplitude of the
// segment following the query's final vertex by weighted-averaging the
// segments that followed each match.
func (m *Matcher) PredictNextSegment(q Query, matches []Match, minMatches int) (SegmentForecast, error) {
	if minMatches <= 0 {
		minMatches = MinMatchesForPrediction
	}
	var durSum, ampSum, wsum float64
	var state plr.State
	counts := [plr.NumStates]float64{}
	used := 0
	for _, mt := range matches {
		v := mt.Stream.ScanView("")
		next := mt.Start + mt.N - 1
		if next+1 >= v.Len() {
			continue // no following segment stored
		}
		// The amplitude is summed over the coordinates, not read off the
		// prefix-sum column, which rounds differently.
		d := v.Dims
		durSum += mt.Weight * (v.T[next+1] - v.T[next])
		ampSum += mt.Weight * plr.Dist(v.Pos[(next+1)*d:(next+2)*d], v.Pos[next*d:(next+1)*d])
		counts[plr.StateOfByte(v.States[next])] += mt.Weight
		wsum += mt.Weight
		used++
	}
	if used < minMatches || wsum == 0 {
		return SegmentForecast{}, ErrNoMatches
	}
	best := 0.0
	for st, c := range counts {
		if c > best {
			best = c
			state = plr.State(st)
		}
	}
	return SegmentForecast{
		State:      state,
		Duration:   durSum / wsum,
		Amplitude:  ampSum / wsum,
		NumMatches: used,
	}, nil
}

// positionFrom is plr.Sequence.PositionFrom over a stream's time and
// position columns (store.Stream.Track): it writes the position the
// stream held at time t into dst, which must have the stream's d
// coordinates (times outside the stream clamp to its ends), and reports
// whether t lies inside the stream. When vertex hint lies at or before t
// the segment holding t is walked to from there; any other hint bisects.
func positionFrom(ts, pos []float64, d int, dst []float64, t float64, hint int) bool {
	last := len(ts) - 1
	if last < 0 || len(dst) != d {
		return false
	}
	if t <= ts[0] {
		copy(dst, pos[:d])
		return t == ts[0]
	}
	if t >= ts[last] {
		copy(dst, pos[last*d:])
		return t == ts[last]
	}
	// The segment containing t: ts[lo] <= t < ts[lo+1].
	lo := hint
	if lo < 0 || lo > last || ts[lo] > t {
		lo = sort.SearchFloat64s(ts, t)
		if ts[lo] > t {
			lo--
		}
	}
	for ts[lo+1] <= t {
		lo++
	}
	a, b := pos[lo*d:(lo+1)*d], pos[(lo+1)*d:(lo+2)*d]
	frac := (t - ts[lo]) / (ts[lo+1] - ts[lo])
	for k := range dst {
		dst[k] = a[k] + frac*(b[k]-a[k])
	}
	return true
}
