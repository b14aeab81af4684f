package plr

import (
	"fmt"
	"math"

	"stsmatch/internal/stats"
)

// The paper motivates the PLR with three claims (Section 3.1): it
// "reduces the size of the raw data, lowers the dimensionality of a
// subsequence, and filters out noise." This file quantifies those
// claims: compression factor, reconstruction error against the raw
// samples, and per-state segment statistics.

// Fidelity summarizes how well a PLR sequence represents the raw
// samples it was segmented from.
type Fidelity struct {
	RawSamples  int
	Vertices    int
	Compression float64 // raw samples per vertex
	RMSE        float64 // reconstruction error on the primary dim
	MaxAbsErr   float64
	MeanAbsErr  float64
}

// String renders the summary.
func (f Fidelity) String() string {
	return fmt.Sprintf("%d samples -> %d vertices (%.1fx), RMSE %.3f, mean|e| %.3f, max|e| %.3f",
		f.RawSamples, f.Vertices, f.Compression, f.RMSE, f.MeanAbsErr, f.MaxAbsErr)
}

// MeasureFidelity evaluates the PLR against the raw samples on the
// given dimension. Samples outside the sequence's time span are
// skipped (the PLR cannot represent what it has not seen).
func MeasureFidelity(seq Sequence, samples []Sample, dim int) (Fidelity, error) {
	if len(seq) < 2 {
		return Fidelity{}, fmt.Errorf("plr: sequence too short to measure")
	}
	if dim < 0 || dim >= seq.Dims() {
		return Fidelity{}, fmt.Errorf("plr: dimension %d out of range", dim)
	}
	var errW stats.Welford
	var sqSum float64
	n := 0
	for _, sm := range samples {
		if dim >= len(sm.Pos) {
			return Fidelity{}, fmt.Errorf("plr: sample has %d dims", len(sm.Pos))
		}
		pos, inside := seq.PositionAt(sm.T)
		if !inside {
			continue
		}
		e := pos[dim] - sm.Pos[dim]
		if e < 0 {
			e = -e
		}
		errW.Add(e)
		sqSum += e * e
		n++
	}
	if n == 0 {
		return Fidelity{}, fmt.Errorf("plr: no samples inside the sequence span")
	}
	f := Fidelity{
		RawSamples:  len(samples),
		Vertices:    len(seq),
		Compression: float64(len(samples)) / float64(len(seq)),
		MeanAbsErr:  errW.Mean(),
		MaxAbsErr:   errW.Max(),
	}
	f.RMSE = math.Sqrt(sqSum / float64(n))
	return f, nil
}

// IRRFraction returns the fraction of a sequence's time spent in
// irregular segments.
func IRRFraction(seq Sequence) float64 {
	total := seq.Duration()
	if total <= 0 {
		return 0
	}
	var irr float64
	for i := 0; i < seq.NumSegments(); i++ {
		if seq[i].State == IRR {
			irr += seq[i+1].T - seq[i].T
		}
	}
	return irr / total
}
