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
	m.call++
	for _, mt := range matches {
		// One view of each stream per call; the future point lies a
		// horizon past the window's last vertex, so look from there.
		ts, pos, d := m.track(mt.Stream, mt.ord)
		end := mt.Start + mt.N - 1
		if _, in := positionFrom(ts, pos, d, f, ts[end]+delta, end); !in {
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
// seconds ahead. An unrestricted one asked again with no new hit
// retrieves FindSimilar's kept list, allocating nothing for it.
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
	if len(q.Seq) == 0 {
		return nil, ErrTooShort
	}
	f := &m.fc
	f.d1, f.d2 = d1, d2
	f.fold(m, &m.answers.fut, q.Seq.Dims(), matches, nil, nil)
	return f.disp(minMatches)
}

// trackRow is a stream's time and position columns (store.Stream.Track)
// as read by one prediction.
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
	f := &m.fc
	f.d1, f.d2 = d1, d2
	if _, err := m.search(ctx, q, nil, 0, m.Params.DistThreshold, f); err != nil {
		return nil, 0, 0, err
	}
	if f.matches > 0 {
		meanDist = f.dsum / float64(f.matches)
	}
	disp, err = f.disp(minMatches)
	return disp, f.matches, meanDist, err
}

// forecast is the one fold behind both prediction doors, PredictDisplacement
// and PredictDisplacementCtx. Its sums live in the Matcher and are cleared by
// every fold, so a search that panicked leaves nothing behind for the next.
type forecast struct {
	d1, d2     float64   // the horizons, seconds past each window's last vertex
	acc        []float64 // Σ w·(b−a), per coordinate
	wsum, dsum float64   // Σ w over the windows with a future; Σ distance over all
	used       int       // windows with a future, of matches
	matches    int
	ab         []float64 // a window's two positions
	one        futures   // the served door's one row: its d1 moves with every ingest, so it keeps none
}

// futures keep, beside a threshold answer's hits, row i for the i-th
// window of PredictDisplacement's last fold: its future, settled once its
// stream reaches both horizons (the database is append-only). A fold at
// the same horizons sums a row only for the window and weight it was
// computed from, so no caller's list, edited or another's, reads a row not its own.
type futures struct {
	rows   []future
	sts    []*store.Stream // row i's stream, apart so that rows hold no pointer
	prods  []float64       // row i's w·(b−a), at [i*dims, (i+1)*dims)
	dims   int
	d1, d2 float64 // the current horizons, and their stamp, counted from 1
	at     uint32
}

// future is a row's key and need: every prefix of the stream at least
// need vertices long gives the same positions. need is 0 to compute the
// row again: its stream does not reach both horizons, or reaches one at
// its last vertex, where a next vertex may move a zero's sign.
type future struct {
	w              float64 // the window's weight: a key, and the Σ w term
	start, n, need int32
	at             uint32 // the horizons' stamp
}

// fold is the one fold kernel: over the caller's matches (PredictDisplacement),
// or a threshold answer's hits in FindSimilar's order, each stream cut at lens,
// the prefix the answer ranked (PredictDisplacementCtx, in m's running search).
// Row i of fu (with fu nil, f's one row, for every window) is summed if it is
// the window's at these horizons and the columns cover its need; else the
// columns are read and fill it. The terms are the rounded products either way:
// the sums' bits do not depend on which rows were reused.
func (f *forecast) fold(m *Matcher, fu *futures, dims int, matches []Match, hits []hit, lens []int32) {
	f.acc = slices.Grow(f.acc[:0], dims)[:dims]
	clear(f.acc)
	n := len(matches) + len(hits) // one of them is empty
	wsum, dsum, used := 0.0, 0.0, 0
	f.ab = slices.Grow(f.ab[:0], 2*dims)[:2*dims]
	mask, stale := -1, fu == nil // window i's row is fu's row i&mask
	if stale {
		fu, mask = &f.one, 0
	}
	if stale = stale || !sameFloat(fu.d1, f.d1) || !sameFloat(fu.d2, f.d2) || fu.at == 0; stale { // no row is current
		fu.d1, fu.d2, fu.at = f.d1, f.d2, fu.at+1
	}
	if fu.dims != dims || fu.at == 0 { // a new stride, or the stamps wrapped
		clear(fu.rows)
		fu.rows, fu.sts, fu.prods, fu.dims, fu.at = fu.rows[:0], fu.sts[:0], fu.prods[:0], dims, 1
	}
	fu.grow(max(n&mask, 1))
	m.call++
	rows, sts, prods, at, acc, a, b := fu.rows, fu.sts, fu.prods, fu.at, f.acc, f.ab[:dims], f.ab[dims:]
	for i := 0; i < n; i++ {
		var st *store.Stream
		var start, wn, d int // the window's first vertex and length; the stream's coordinates
		var w float64
		var ts, pos []float64
		if i < len(matches) {
			mt := &matches[i]
			st, start, wn, w = mt.Stream, mt.Start, mt.N, mt.Weight
			ts, pos, d = m.track(st, mt.ord)
		} else {
			// The weight is Match.Weight's, ws/(1+dist).
			h := &hits[i]
			st, start, wn, w = m.streams[h.ord], int(h.start), m.plan.n, m.plan.ws[m.relation(h.ord)]/(1+h.dist)
			ts, pos, d = m.track(st, h.ord)
			ts, pos = ts[:lens[h.ord]], pos[:int(lens[h.ord])*d]
			dsum += h.dist
		}
		j := i & mask
		r, p := &rows[j], prods[j*dims:(j+1)*dims]
		if stale || r.need == 0 || int(r.need) > len(ts) || r.at != at || sts[j] != st ||
			r.start != int32(start) || r.n != int32(wn) || !sameFloat(r.w, w) {
			*r = future{w: w, start: int32(start), n: int32(wn), at: at}
			if sts[j] != st {
				sts[j] = st
			}
			end := start + wn - 1
			na, ina := positionFrom(ts, pos, d, a, ts[end]+f.d1, end)
			nb, inb := positionFrom(ts, pos, d, b, ts[end]+f.d2, end)
			if !ina || !inb {
				continue // the stream does not reach both horizons
			}
			if na > 0 && nb > 0 {
				r.need = int32(max(na, nb))
			}
			for k := range p {
				p[k] = float64(w * (b[k] - a[k]))
			}
		}
		for k, x := range p {
			acc[k] += x
		}
		wsum += w
		used++
	}
	f.wsum, f.dsum, f.used, f.matches = wsum, dsum, used, n
}

// grow makes room for n rows; one it adds is zero (fold clears the rows it drops).
func (fu *futures) grow(n int) {
	if k := n - len(fu.rows); k > 0 {
		fu.rows = slices.Grow(fu.rows, k)[:n]
		fu.sts = slices.Grow(fu.sts, k)[:n]
		fu.prods = slices.Grow(fu.prods, k*fu.dims)[:n*fu.dims]
	}
}

// disp is the fold's estimate, Σ w·(b−a) / Σ w in a slice of its own, or
// ErrNoMatches from fewer than minMatches windows with a future.
func (f *forecast) disp(minMatches int) ([]float64, error) {
	if minMatches <= 0 {
		minMatches = MinMatchesForPrediction
	}
	if f.used < minMatches || f.wsum == 0 {
		return nil, ErrNoMatches
	}
	disp := make([]float64, len(f.acc))
	for k, a := range f.acc {
		disp[k] = a / f.wsum
	}
	return disp, nil
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
// whether t lies inside the stream, and how long a prefix gives the same
// position (0 at the last vertex, which a later one makes a segment's
// start). When vertex hint lies at or before t the segment holding t is
// walked to from there; any other hint bisects.
func positionFrom(ts, pos []float64, d int, dst []float64, t float64, hint int) (need int, in bool) {
	last := len(ts) - 1
	if last < 0 || len(dst) != d {
		return 0, false
	}
	if t <= ts[0] {
		copy(dst, pos[:d])
		return 1, t == ts[0]
	}
	if t >= ts[last] {
		copy(dst, pos[last*d:])
		return 0, t == ts[last]
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
	return lo + 2, true
}
