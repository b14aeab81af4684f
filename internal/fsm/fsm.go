// Package fsm implements the finite state motion model of the paper
// (Section 3.1, Figure 4) and the online segmentation algorithm that
// turns a raw sample stream into a piecewise linear representation
// (PLR) guided by the finite state automaton.
//
// The automaton has three regular breathing states — EX (exhale),
// EOE (end-of-exhale) and IN (inhale) — visited in the fixed order
// EX -> EOE -> IN -> EX, plus one irregular state IRR entered whenever
// the observed motion violates the regular pattern and left when
// regular breathing resumes.
//
// The segmenter processes each incoming sample in O(1) amortized time
// with O(1) state (a short slope window plus per-cycle statistics), as
// the paper requires for real-time use: "Our online segmentation runs
// with constant space and in linear time with respect to raw data
// points."
package fsm

import (
	"fmt"
	"math"

	"stsmatch/internal/plr"
	"stsmatch/internal/stats"
)

// Config controls the online segmenter. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// PrimaryDim is the spatial dimension used for state
	// classification (for respiratory motion, the superior-inferior
	// axis carries the breathing signal). Positions remain fully
	// n-dimensional in the emitted vertices.
	PrimaryDim int

	// SlopeWindow is the number of recent samples in the trend
	// window used to estimate the instantaneous slope. At 30 Hz,
	// 9 samples = 0.3 s.
	SlopeWindow int

	// SlopeThreshold (units/s) separates moving states from EOE:
	// slope < -SlopeThreshold => EX, slope > +SlopeThreshold => IN,
	// otherwise EOE.
	SlopeThreshold float64

	// MinSegmentDur (s) is the minimum duration of a segment;
	// shorter state flickers are absorbed into the current segment
	// (hysteresis against noise).
	MinSegmentDur float64

	// SmoothAlpha is the exponential smoothing factor applied to the
	// primary dimension before classification (0 disables). This
	// suppresses the cardiac-motion oscillation described in
	// Figure 3c.
	SmoothAlpha float64

	// SpikeSigma rejects spike noise (Figure 3d): a sample whose
	// primary-dimension jump from the previous smoothed value
	// exceeds SpikeSigma times the running jump deviation is clamped.
	SpikeSigma float64

	// MaxCycleDeviation controls IRR detection: a completed segment
	// whose duration or amplitude deviates from the running per-state
	// mean by more than this factor marks the motion irregular.
	MaxCycleDeviation float64

	// MinRegularCycles is how many clean EX->EOE->IN cycles must be
	// observed after an irregularity before the automaton returns to
	// the regular states.
	MinRegularCycles int

	// Transitions optionally replaces the automaton's transition
	// relation, for the Section 6 generalization to motions whose
	// regular cycle differs from breathing ("build a finite state
	// model" is step 1 of the framework). Each pair is an allowed
	// (from, to) transition between regular states. Nil keeps the
	// respiratory automaton EX -> EOE -> IN -> EX. For example, a
	// pick-and-place robot axis cycles IN -> EOE -> EX -> EOE with two
	// dwells per cycle:
	//
	//	cfg.Transitions = [][2]plr.State{
	//		{plr.IN, plr.EOE}, {plr.EOE, plr.EX},
	//		{plr.EX, plr.EOE}, {plr.EOE, plr.IN},
	//	}
	Transitions [][2]plr.State
}

// allowedNext materializes the transition relation as a lookup matrix.
func (c Config) allowedNext() [plr.NumStates][plr.NumStates]bool {
	var m [plr.NumStates][plr.NumStates]bool
	if c.Transitions == nil {
		m[plr.EX][plr.EOE] = true
		m[plr.EOE][plr.IN] = true
		m[plr.IN][plr.EX] = true
		return m
	}
	for _, tr := range c.Transitions {
		if tr[0].Valid() && tr[1].Valid() {
			m[tr[0]][tr[1]] = true
		}
	}
	return m
}

// DefaultConfig returns the segmenter configuration used throughout
// the reproduction: tuned for 30 Hz respiratory data in millimetres
// with cycle periods of roughly 2.5-6 s and amplitudes of 5-25 mm.
// Outside that envelope, scale the time constants with the signal: the
// trend window plus the hysteresis must fit inside the shortest real
// segment, and the slope threshold should sit between the rest-state
// and moving-state slopes (see examples/heartbeat and examples/tides
// for reconfigurations to 0.85 s beats and 12 h tides).
func DefaultConfig() Config {
	return Config{
		PrimaryDim:        0,
		SlopeWindow:       15,  // 0.5 s at 30 Hz: long enough to average out ~1.2 Hz cardiac motion
		SlopeThreshold:    4.0, // mm/s
		MinSegmentDur:     0.25,
		SmoothAlpha:       0.15,
		SpikeSigma:        6.0,
		MaxCycleDeviation: 2.6,
		MinRegularCycles:  1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SlopeWindow < 2 {
		return fmt.Errorf("fsm: SlopeWindow must be >= 2, got %d", c.SlopeWindow)
	}
	if c.SlopeThreshold <= 0 {
		return fmt.Errorf("fsm: SlopeThreshold must be positive, got %v", c.SlopeThreshold)
	}
	if c.MinSegmentDur < 0 {
		return fmt.Errorf("fsm: MinSegmentDur must be >= 0, got %v", c.MinSegmentDur)
	}
	if c.SmoothAlpha < 0 || c.SmoothAlpha > 1 {
		return fmt.Errorf("fsm: SmoothAlpha must be in [0,1], got %v", c.SmoothAlpha)
	}
	if c.PrimaryDim < 0 {
		return fmt.Errorf("fsm: PrimaryDim must be >= 0, got %d", c.PrimaryDim)
	}
	if c.MaxCycleDeviation <= 1 {
		return fmt.Errorf("fsm: MaxCycleDeviation must be > 1, got %v", c.MaxCycleDeviation)
	}
	for _, tr := range c.Transitions {
		if !tr[0].Valid() || !tr[1].Valid() || tr[0] == plr.IRR || tr[1] == plr.IRR {
			return fmt.Errorf("fsm: invalid transition %v -> %v", tr[0], tr[1])
		}
	}
	return nil
}

// Segmenter converts a raw sample stream into PLR vertices online.
// Create one with New, feed samples with Push, and call Flush at end
// of stream. A Segmenter is not safe for concurrent use; use one per
// stream.
type Segmenter struct {
	cfg Config

	// Trend window: a ring of the last SlopeWindow cleaned samples in
	// two pointer-free columns, times in wT and positions flat in wPos
	// (dims slots a sample). head is the slot the next sample takes, so
	// once the window is full it is also the oldest sample's.
	dims       int
	wT, wPos   []float64
	head       int
	reg        stats.LinReg
	smooth     float64
	jump       stats.Welford // running |Δprimary| stats for spike rejection
	lastGoodY  float64
	spikeHolds int

	lastT    float64 // newest sample's time, for the ordering check
	curState plr.State
	segStart plr.Sample
	// primedT is the time of the last vertex Prime restored (-Inf when
	// unprimed): the caller's stream already holds every vertex at or
	// before it, so none is emitted.
	primedT float64

	// FSA bookkeeping
	allowed      [plr.NumStates][plr.NumStates]bool
	irr          bool
	cleanStreak  int
	durStats     [plr.NumStates]stats.Welford
	ampStats     [plr.NumStates]stats.Welford
	segsEmitted  int
	samplesSeen  int
	pendingState plr.State
	pendingSince float64
	havePending  bool
}

// New builds a Segmenter; it returns an error for invalid
// configurations.
func New(cfg Config) (*Segmenter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Segmenter{
		cfg:      cfg,
		wT:       make([]float64, cfg.SlopeWindow),
		curState: plr.IRR,
		primedT:  math.Inf(-1),
		allowed:  cfg.allowedNext(),
	}, nil
}

// SamplesSeen returns the number of samples pushed so far.
func (s *Segmenter) SamplesSeen() int { return s.samplesSeen }

// SegmentsEmitted returns the number of vertices emitted so far.
func (s *Segmenter) SegmentsEmitted() int { return s.segsEmitted }

// CurrentState returns the state of the segment currently being built.
func (s *Segmenter) CurrentState() plr.State { return s.curState }

// Push feeds one sample and returns any vertices completed by it
// (usually none or one). The returned slice aliases no internal state.
// Samples must arrive in strictly increasing time order and keep the
// first sample's dimensionality; any other sample returns an error and
// leaves the segmenter as it was.
func (s *Segmenter) Push(sm plr.Sample) ([]plr.Vertex, error) {
	if s.cfg.PrimaryDim >= len(sm.Pos) {
		return nil, fmt.Errorf("fsm: sample has %d dims, primary dim is %d", len(sm.Pos), s.cfg.PrimaryDim)
	}
	if s.samplesSeen == 0 {
		s.start(sm)
		return nil, nil
	}
	if sm.T <= s.lastT {
		return nil, fmt.Errorf("fsm: non-increasing sample time %v after %v", sm.T, s.lastT)
	}
	if len(sm.Pos) != s.dims {
		return nil, fmt.Errorf("fsm: sample has %d dims, the stream has %d", len(sm.Pos), s.dims)
	}
	s.samplesSeen++

	// Spike rejection (Figure 3d): a sample-to-sample jump far beyond
	// the running jump statistics is an acquisition artifact — hold
	// the last good value instead. Genuine fast motion (a cough)
	// persists, so after maxSpikeHold consecutive rejections the new
	// level is accepted. The limit is never below SpikeSigma*jumpFloor
	// (multiplying by a positive constant is monotone, and a NaN limit
	// rejects nothing), so a jump at or under that floor skips it.
	const maxSpikeHold = 3
	y := sm.Pos[s.cfg.PrimaryDim]
	jump := math.Abs(y - s.lastGoodY)
	if jump > s.cfg.SpikeSigma*jumpFloor && s.cfg.SpikeSigma > 0 && s.jump.N() >= 10 && s.spikeHolds < maxSpikeHold &&
		jump > s.cfg.SpikeSigma*math.Max(s.jump.Mean()+3*s.jump.StdDev(), jumpFloor) {
		y = s.lastGoodY
		s.spikeHolds++
		mSpikeRejects.Inc()
	} else {
		s.spikeHolds = 0
		s.jump.Add(jump)
		s.lastGoodY = y
	}

	// Exponential smoothing of the classification signal.
	if s.cfg.SmoothAlpha > 0 {
		s.smooth = s.cfg.SmoothAlpha*y + (1-s.cfg.SmoothAlpha)*s.smooth
	} else {
		s.smooth = y
	}

	// Maintain the trend window: the new sample takes the oldest one's
	// slot, so a steady-state Push allocates nothing. The slot keeps the
	// full position but with the cleaned primary dimension, so emitted
	// vertices are denoised too; whatever outlives the window (the open
	// segment's start) holds a copy of its own.
	w := s.cfg.SlopeWindow
	if s.samplesSeen > w {
		s.reg.Remove(s.wT[s.head], s.wPos[s.head*s.dims+s.cfg.PrimaryDim])
	}
	s.fill(sm)
	s.reg.Add(sm.T, s.smooth)
	if s.samplesSeen < w {
		return nil, nil // not enough evidence yet
	}

	obs := s.classify(s.reg.Slope())
	if obs == s.curState {
		// classify never answers IRR, so this is transition's unchanged
		// branch, without the call.
		s.havePending = false
		return nil, nil
	}
	if v, emitted := s.transition(obs, sm.T); emitted {
		return []plr.Vertex{v}, nil
	}
	return nil, nil
}

// jumpFloor is the least jump deviation (in the primary dimension's
// units) the spike limit scales: SpikeSigma*jumpFloor is the smallest
// jump that can be rejected.
const jumpFloor = 0.2

// start takes a stream's first sample: it fixes the dimensionality,
// seeds the smoother and the spike filter, and opens the first segment.
func (s *Segmenter) start(sm plr.Sample) {
	s.samplesSeen++
	s.dims = len(sm.Pos)
	s.wPos = make([]float64, s.cfg.SlopeWindow*s.dims)
	s.lastGoodY = sm.Pos[s.cfg.PrimaryDim]
	s.smooth = s.lastGoodY
	slot := s.fill(sm)
	s.segStart = plr.Sample{T: sm.T, Pos: append([]float64(nil), slot...)}
	s.reg.Add(sm.T, s.smooth)
}

// fill writes sm into the window's head slot, its primary dimension
// replaced by the smoothed value, advances the head and returns the
// slot. The slot is written by a loop: copy would cost a call for what
// is usually one float.
func (s *Segmenter) fill(sm plr.Sample) []float64 {
	slot := s.wPos[s.head*s.dims : (s.head+1)*s.dims]
	for i, x := range sm.Pos {
		slot[i] = x
	}
	slot[s.cfg.PrimaryDim] = s.smooth
	s.wT[s.head] = sm.T
	if s.head++; s.head == s.cfg.SlopeWindow {
		s.head = 0
	}
	s.lastT = sm.T
	return slot
}

// classify maps an instantaneous slope to a raw observed state with a
// deadband: moving states (EX/IN) require |slope| above the full
// threshold, the rest state (EOE) requires |slope| below half of it,
// and slopes in between stick to the current state. The deadband keeps
// residual noise (cardiac motion the trend window didn't fully average
// out) from flickering the state on small-amplitude, slow breathers.
func (s *Segmenter) classify(slope float64) plr.State {
	hi := s.cfg.SlopeThreshold
	lo := hi / 2
	switch {
	case slope < -hi:
		return plr.EX
	case slope > hi:
		return plr.IN
	case slope > -lo && slope < lo:
		return plr.EOE
	default:
		// Deadband: ambiguous slope, no state change evidence.
		if s.curState.Regular() {
			return s.curState
		}
		return plr.EOE
	}
}

// transition runs the finite state automaton on the observed state and
// emits a vertex when the current segment closes. It runs only on a
// full trend window; at is the newest sample's time.
func (s *Segmenter) transition(obs plr.State, at float64) (plr.Vertex, bool) {
	if s.curState == plr.IRR && !s.irr && s.segsEmitted == 0 && s.samplesSeen <= s.cfg.SlopeWindow+1 {
		// Initial state assignment: adopt the first confident
		// observation without emitting a vertex.
		s.curState = obs
		return plr.Vertex{}, false
	}
	if obs == s.curState {
		s.havePending = false
		return plr.Vertex{}, false
	}

	// Hysteresis: require the new state to persist briefly before
	// committing a vertex, so single-sample flickers don't fragment
	// the PLR.
	if !s.havePending || s.pendingState != obs {
		s.havePending = true
		s.pendingState = obs
		s.pendingSince = at
		return plr.Vertex{}, false
	}
	if at-s.pendingSince < s.cfg.MinSegmentDur {
		return plr.Vertex{}, false
	}
	s.havePending = false

	// Close the current segment at the estimated *physical* boundary,
	// not at the detection commit point: the trend window delays the
	// slope estimate by ~window/2 and the hysteresis adds
	// MinSegmentDur on top, so the transition really happened around
	// pendingSince - window/2. Backdating keeps segment amplitudes
	// and durations faithful, which the irregularity statistics and
	// the similarity measure both depend on.
	b := s.boundarySlot()
	endT, endPos := s.wT[b], s.wPos[b*s.dims:(b+1)*s.dims]
	endY := endPos[s.cfg.PrimaryDim]

	// A segment whose own duration or amplitude is anomalous (a
	// breath hold, a deep breath) is labeled IRR directly and kept
	// out of the running statistics.
	anomalous := s.segmentAnomalous(endT, endY)
	stateForV := s.effectiveState()
	if anomalous {
		stateForV = plr.IRR
	}
	v := plr.Vertex{T: s.segStart.T, Pos: s.segStart.Pos, State: stateForV}
	if !anomalous && !s.irr {
		s.noteSegment(s.curState, endT, endY)
	}

	switch {
	case anomalous || s.fsaViolation(obs):
		s.enterIRR()
	case s.irr:
		s.maybeLeaveIRR(obs)
	}
	s.curState = obs
	s.segStart = plr.Sample{T: endT, Pos: append([]float64(nil), endPos...)}
	s.segsEmitted++
	// A primed segmenter's first close re-emits the vertex its open
	// segment was anchored at; the caller's stream holds it already.
	return v, v.T > s.primedT
}

// boundarySlot estimates the window slot of the sample at the physical
// state transition: the pending state was first observed at
// pendingSince, which itself lags the signal by half the trend window.
// The estimate is clamped inside the full window, walked from oldest
// to newest, and strictly after the current segment start so vertex
// times stay increasing.
func (s *Segmenter) boundarySlot() int {
	w := s.cfg.SlopeWindow
	best := (s.head + w - 1) % w
	dt := (s.wT[best] - s.wT[s.head]) / float64(w-1)
	target := s.pendingSince - float64(w)/2*dt
	bestDiff := math.Abs(s.wT[best] - target)
	for k := range w {
		i := (s.head + k) % w
		if s.wT[i] <= s.segStart.T {
			continue
		}
		if d := math.Abs(s.wT[i] - target); d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// effectiveState is the state recorded on the vertex that opens the
// closing segment: IRR while the automaton is in irregular mode,
// otherwise the observed regular state.
func (s *Segmenter) effectiveState() plr.State {
	if s.irr {
		return plr.IRR
	}
	return s.curState
}

// warmupSegments is the number of initial segments during which FSA
// violations are forgiven: the first observations start mid-cycle and
// the trend estimate is still settling, so early misorderings are
// classification artifacts, not irregular breathing.
const warmupSegments = 3

// fsaViolation reports whether moving from the current state to obs
// violates the automaton's transition relation (the respiratory order
// EX -> EOE -> IN -> EX by default).
func (s *Segmenter) fsaViolation(obs plr.State) bool {
	if s.irr {
		return false // already irregular; handled by maybeLeaveIRR
	}
	if s.segsEmitted < warmupSegments {
		return false
	}
	return !s.allowed[s.curState][obs]
}

// segmentAnomalous reports whether the closing segment's duration or
// amplitude deviates wildly from its state's running statistics (a
// breath hold stretches EOE; a deep breath doubles EX/IN amplitude).
// Checks engage only once enough regular segments have been observed.
// The segment ends at time endT with primary coordinate endY.
func (s *Segmenter) segmentAnomalous(endT, endY float64) bool {
	if s.irr {
		return false // everything inside an IRR run is already irregular
	}
	k := s.curState
	if !k.Regular() {
		return false
	}
	if s.durStats[k].N() >= 4 {
		dur := endT - s.segStart.T
		mean := s.durStats[k].Mean()
		if mean > 0 && (dur > mean*s.cfg.MaxCycleDeviation || dur < mean/(2*s.cfg.MaxCycleDeviation)) {
			return true
		}
	}
	// Amplitude deviations only mean something for the moving states;
	// EOE plateaus have near-zero, noise-dominated amplitudes.
	if k != plr.EOE && s.ampStats[k].N() >= 4 {
		amp := math.Abs(endY - s.segStart.Pos[s.cfg.PrimaryDim])
		mean := s.ampStats[k].Mean()
		if mean > 1 && (amp > mean*s.cfg.MaxCycleDeviation || amp < mean/(2*s.cfg.MaxCycleDeviation)) {
			return true
		}
	}
	return false
}

func (s *Segmenter) enterIRR() {
	if !s.irr {
		mIRREntries.Inc()
	}
	s.irr = true
	s.cleanStreak = 0
}

// maybeLeaveIRR counts consecutive transitions that the automaton
// allows while in IRR and exits irregular mode after MinRegularCycles
// full cycles' worth of them (three transitions per cycle).
func (s *Segmenter) maybeLeaveIRR(obs plr.State) {
	if s.curState.Regular() && s.allowed[s.curState][obs] {
		s.cleanStreak++
		if s.cleanStreak >= 3*s.cfg.MinRegularCycles {
			s.irr = false
		}
		return
	}
	s.cleanStreak = 0
}

// noteSegment records duration/amplitude statistics of the closing
// segment for irregularity detection.
func (s *Segmenter) noteSegment(st plr.State, endT, endY float64) {
	dur := endT - s.segStart.T
	amp := math.Abs(endY - s.segStart.Pos[s.cfg.PrimaryDim])
	if st.Valid() {
		s.durStats[st].Add(dur)
		s.ampStats[st].Add(amp)
	}
}

// Flush closes the trailing segment and returns its opening vertex plus
// a final vertex at the last sample time. Call once at end of stream;
// the Segmenter must not be reused afterwards.
func (s *Segmenter) Flush() []plr.Vertex {
	if s.samplesSeen == 0 {
		return nil
	}
	var out []plr.Vertex
	if s.segStart.T > s.primedT {
		out = append(out, plr.Vertex{T: s.segStart.T, Pos: s.segStart.Pos, State: s.effectiveState()})
	}
	if s.lastT > s.segStart.T {
		newest := (s.head + s.cfg.SlopeWindow - 1) % s.cfg.SlopeWindow
		pos := append([]float64(nil), s.wPos[newest*s.dims:(newest+1)*s.dims]...)
		out = append(out, plr.Vertex{T: s.lastT, Pos: pos, State: s.effectiveState()})
	}
	return out
}

// SegmentAll is a convenience that runs a complete sample slice through
// a fresh segmenter and returns the full PLR sequence.
func SegmentAll(cfg Config, samples []plr.Sample) (plr.Sequence, error) {
	seg, err := New(cfg)
	if err != nil {
		return nil, err
	}
	var seq plr.Sequence
	for _, sm := range samples {
		vs, err := seg.Push(sm)
		if err != nil {
			return nil, err
		}
		seq = append(seq, vs...)
	}
	seq = append(seq, seg.Flush()...)
	if err := seq.Validate(); err != nil {
		return nil, fmt.Errorf("fsm: produced invalid sequence: %w", err)
	}
	return seq, nil
}
