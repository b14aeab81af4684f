// Package plr implements the piecewise linear representation (PLR) of
// structured time series used throughout the paper (Section 3.2).
//
// A PLR sequence is an ordered list of vertices. Each vertex carries
// the segment start time, an n-dimensional spatial position, and the
// breathing state of the line segment that *begins* at the vertex
// (EX, EOE, IN or IRR). A vertex both ends the previous line segment
// and starts the next one, so a sequence of n vertices describes n-1
// line segments.
package plr

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// State is the finite-state-model state of a line segment. The three
// regular breathing states follow the fixed order EX -> EOE -> IN -> EX;
// IRR is entered during irregular breathing (Figure 4 of the paper).
type State uint8

// The four states of the finite state model.
const (
	EX  State = iota // exhale: motion due to lung deflation
	EOE              // end-of-exhale: rest after lung deflation
	IN               // inhale: motion due to lung expansion
	IRR              // irregular breathing
)

// NumStates is the size of the state alphabet.
const NumStates = 4

// String returns the conventional name of the state.
func (s State) String() string {
	switch s {
	case EX:
		return "EX"
	case EOE:
		return "EOE"
	case IN:
		return "IN"
	case IRR:
		return "IRR"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Byte returns a compact one-byte code for the state, used in state
// signature strings ('E', 'O', 'I', 'R').
func (s State) Byte() byte {
	switch s {
	case EX:
		return 'E'
	case EOE:
		return 'O'
	case IN:
		return 'I'
	default:
		return 'R'
	}
}

// StateOfByte is the inverse of Byte: the state a signature letter
// stands for, IRR for any but 'E', 'O' and 'I'.
func StateOfByte(b byte) State {
	if i := strings.IndexByte("EOI", b); i >= 0 {
		return State(i)
	}
	return IRR
}

// Valid reports whether s is one of the four defined states.
func (s State) Valid() bool { return s <= IRR }

// Regular reports whether s is one of the three regular breathing
// states.
func (s State) Regular() bool { return s == EX || s == EOE || s == IN }

// NextRegular returns the state that follows s in the regular breathing
// cycle EX -> EOE -> IN -> EX. For IRR it returns IRR.
func (s State) NextRegular() State {
	switch s {
	case EX:
		return EOE
	case EOE:
		return IN
	case IN:
		return EX
	default:
		return IRR
	}
}

// ParseState converts a state name ("EX", "EOE", "IN", "IRR") to a
// State.
func ParseState(name string) (State, error) {
	switch name {
	case "EX":
		return EX, nil
	case "EOE":
		return EOE, nil
	case "IN":
		return IN, nil
	case "IRR":
		return IRR, nil
	}
	return 0, fmt.Errorf("plr: unknown state %q", name)
}

// Vertex is the intersection of two adjacent line segments. T is both
// the start time of the segment beginning at this vertex and the end
// time of the previous segment. Pos is the n-dimensional tumor (or
// generic target) position at time T. State is the state of the
// segment that begins at this vertex; for the final vertex of a closed
// sequence the state describes the (possibly still open) trailing
// segment.
type Vertex struct {
	T     float64   `json:"t"`
	Pos   []float64 `json:"pos"`
	State State     `json:"state"`
}

// Clone returns a deep copy of the vertex.
func (v Vertex) Clone() Vertex {
	p := make([]float64, len(v.Pos))
	copy(p, v.Pos)
	return Vertex{T: v.T, Pos: p, State: v.State}
}

// Sequence is an ordered list of connected vertices: the PLR of one
// motion stream (or a window of one).
type Sequence []Vertex

// Errors returned by Validate.
var (
	ErrTimeOrder = errors.New("plr: vertex times not strictly increasing")
	ErrDims      = errors.New("plr: inconsistent position dimensionality")
	ErrState     = errors.New("plr: invalid state")
)

// Validate checks the structural invariants of a sequence: strictly
// increasing vertex times, consistent position dimensionality, and
// valid states.
func (s Sequence) Validate() error {
	for i := range s {
		if !s[i].State.Valid() {
			return fmt.Errorf("%w at vertex %d", ErrState, i)
		}
		if i == 0 {
			continue
		}
		if s[i].T <= s[i-1].T {
			return fmt.Errorf("%w at vertex %d (%v after %v)", ErrTimeOrder, i, s[i].T, s[i-1].T)
		}
		if len(s[i].Pos) != len(s[0].Pos) {
			return fmt.Errorf("%w at vertex %d", ErrDims, i)
		}
	}
	return nil
}

// Dims returns the spatial dimensionality of the sequence (0 when
// empty).
func (s Sequence) Dims() int {
	if len(s) == 0 {
		return 0
	}
	return len(s[0].Pos)
}

// NumSegments returns the number of line segments (len-1, floor 0).
func (s Sequence) NumSegments() int {
	if len(s) < 2 {
		return 0
	}
	return len(s) - 1
}

// Duration returns the time span covered by the sequence.
func (s Sequence) Duration() float64 {
	if len(s) < 2 {
		return 0
	}
	return s[len(s)-1].T - s[0].T
}

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i := range s {
		out[i] = s[i].Clone()
	}
	return out
}

// Window returns the subsequence s[start:end] (sharing backing data).
// It panics on out-of-range indices, like a slice expression.
func (s Sequence) Window(start, end int) Sequence { return s[start:end] }

// Segment describes one line segment of a sequence in the geometric
// terms the similarity measure consumes: its state, its duration
// (frequency component), and its displacement vector (amplitude
// component).
type Segment struct {
	State    State
	Duration float64
	Delta    []float64 // Pos[end] - Pos[start]
}

// Amplitude returns the Euclidean norm of the segment displacement.
func (g Segment) Amplitude() float64 { return Norm(g.Delta) }

// SegmentAt returns the i-th segment (between vertices i and i+1).
func (s Sequence) SegmentAt(i int) Segment {
	a, b := s[i], s[i+1]
	d := make([]float64, len(a.Pos))
	for k := range d {
		d[k] = b.Pos[k] - a.Pos[k]
	}
	return Segment{State: a.State, Duration: b.T - a.T, Delta: d}
}

// Segments returns all segments of the sequence.
func (s Sequence) Segments() []Segment {
	out := make([]Segment, s.NumSegments())
	for i := range out {
		out[i] = s.SegmentAt(i)
	}
	return out
}

// StateSignature returns the compact one-byte-per-segment state string
// of the sequence ("EOI" repeats for regular breathing). Only the
// first len(s)-1 states are segment states; by convention the final
// vertex's state is excluded because it describes the open trailing
// segment.
func (s Sequence) StateSignature() string {
	n := s.NumSegments()
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = s[i].State.Byte()
	}
	return string(b)
}

// StateString returns the signature over *all* vertices including the
// trailing one; store indexing uses this form.
func (s Sequence) StateString() string {
	b := make([]byte, len(s))
	for i := range s {
		b[i] = s[i].State.Byte()
	}
	return string(b)
}

// PositionAt returns the interpolated position at time t. Times before
// the first vertex clamp to the first position; times after the last
// vertex clamp to the last position (the PLR has no information beyond
// its ends). The boolean result reports whether t was inside the
// covered range.
func (s Sequence) PositionAt(t float64) ([]float64, bool) {
	if len(s) == 0 {
		return nil, false
	}
	out := make([]float64, len(s[0].Pos))
	return out, s.PositionFrom(out, t, -1)
}

// PositionFrom is PositionAt without the allocation and, for a caller
// that knows roughly where t falls, without the search: it writes the
// position into dst (of the sequence's dimensionality) and, when vertex
// hint lies at or before t, walks forward from it instead of bisecting
// the whole sequence. Any other hint (-1, say) bisects.
func (s Sequence) PositionFrom(dst []float64, t float64, hint int) bool {
	if len(s) == 0 {
		return false
	}
	if first := s[0]; t <= first.T {
		copy(dst, first.Pos)
		return t == first.T
	}
	if last := s[len(s)-1]; t >= last.T {
		copy(dst, last.Pos)
		return t == last.T
	}
	// The segment containing t: s[lo].T <= t < s[lo+1].T.
	lo := hint
	if lo < 0 || lo >= len(s) || s[lo].T > t {
		lo = s.IndexAtTime(t)
	}
	for s[lo+1].T <= t {
		lo++
	}
	a, b := s[lo], s[lo+1]
	frac := (t - a.T) / (b.T - a.T)
	for k := range dst {
		dst[k] = a.Pos[k] + frac*(b.Pos[k]-a.Pos[k])
	}
	return true
}

// IndexAtTime returns the index of the last vertex with T <= t, or -1
// when t precedes the sequence.
func (s Sequence) IndexAtTime(t float64) int {
	if len(s) == 0 || t < s[0].T {
		return -1
	}
	lo, hi := 0, len(s)-1
	if t >= s[hi].T {
		return hi
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s[mid].T <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// CycleCount returns the number of complete regular breathing cycles
// (EX->EOE->IN runs) in the sequence.
func (s Sequence) CycleCount() int {
	count := 0
	want := EX
	progressed := 0
	for i := 0; i < s.NumSegments(); i++ {
		st := s[i].State
		if st == IRR {
			want, progressed = EX, 0
			continue
		}
		if st == want {
			progressed++
			if progressed == 3 {
				count++
				progressed = 0
				want = EX
			} else {
				want = want.NextRegular()
			}
		} else if st == EX {
			// Restart a cycle from EX.
			want, progressed = EOE, 1
		} else {
			want, progressed = EX, 0
		}
	}
	return count
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between equal-length vectors a
// and b. It panics on mismatched lengths (a programming error).
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("plr: dimension mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
