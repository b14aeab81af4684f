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
	m.call++
	for _, mt := range matches {
		ts, pos, d := m.track(mt.Stream, mt.ord)
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

// trackRow is a stream's time and position columns (store.Stream.Track)
// as read by one PredictDisplacement call or forecast fold.
type trackRow struct {
	st      *store.Stream
	call    uint64
	ts, pos []float64
	dims    int
}

// track returns the columns of stream st, the ord-th of a stream list,
// read once per call: a table row per stream ordinal, taken as the call's
// if it names this call and st (a caller's matches may come from any
// matcher, or none).
func (m *Matcher) track(st *store.Stream, ord int32) (ts, pos []float64, dims int) {
	o := int(ord)
	if o >= len(m.tracks) {
		m.tracks = slices.Grow(m.tracks, o+1-len(m.tracks))[:o+1]
	}
	t := &m.tracks[o]
	if t.st != st || t.call != m.call {
		t.ts, t.pos, t.dims = st.Track()
		t.st, t.call = st, m.call
	}
	return t.ts, t.pos, t.dims
}

// PredictDisplacementCtx is the server's estimator in one funnel pass:
// the displacement PredictDisplacement would estimate from
// FindSimilarCtx's matches, bit for bit, together with the number of
// those matches and their mean distance (0 without any). No Match is
// built: the hits, placed in the result order or repaired, are folded
// straight into the sums (forecast.fold).
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
	ab         []float64 // a hit's two positions, then its displacement
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

// fold sums a threshold answer's hits in its order, which is matchCmp's —
// the order of FindSimilar's result. Each window's future is read at the
// horizons off its stream's columns cut at lens, the prefix the answer
// ranked, so a vertex appended since, even while the search ran, is not
// in it. PredictDisplacement and a mean over FindSimilar's result add the
// same terms in the same order, so the sums come out the same to the bit.
func (f *forecast) fold(m *Matcher, pl *queryPlan, streams []*store.Stream, lens []int32, hits []hit) {
	dims := pl.q.Seq.Dims()
	f.acc = slices.Grow(f.acc[:0], dims)[:dims]
	clear(f.acc)
	f.wsum, f.dsum, f.used, f.matches = 0, 0, 0, len(hits)
	f.ab = slices.Grow(f.ab[:0], 2*dims)[:2*dims]
	m.call++
	for _, h := range hits {
		st, n := streams[h.ord], int(lens[h.ord])
		ts, pos, _ := m.track(st, h.ord)
		f.dsum += h.dist
		if !f.between(ts[:n], pos[:n*dims], dims, int(h.start)+pl.n-1, f.ab) {
			continue // the stream does not reach both horizons
		}
		// The weight is Match.Weight's, ws/(1+dist).
		wt := pl.ws[m.relation(h.ord)] / (1 + h.dist)
		for k := range f.acc {
			f.acc[k] += wt * f.ab[k]
		}
		f.wsum += wt
		f.used++
	}
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
