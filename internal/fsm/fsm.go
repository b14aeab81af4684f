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

	// trend window (ring buffer of the last SlopeWindow samples)
	win        []plr.Sample
	reg        stats.LinReg
	smooth     float64
	jump       stats.Welford // running |Δprimary| stats for spike rejection
	lastGoodY  float64
	spikeHolds int

	started   bool
	lastRaw   plr.Sample
	curState  plr.State
	segStart  plr.Sample
	segStartT float64

	// FSA bookkeeping
	allowed      [plr.NumStates][plr.NumStates]bool
	irr          bool
	cleanStreak  int
	durStats     [plr.NumStates]stats.Welford
	ampStats     [plr.NumStates]stats.Welford
	segsEmitted  int
	samplesSeen  int
	transitions  int
	irrEntries   int
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
		win:      make([]plr.Sample, 0, cfg.SlopeWindow),
		curState: plr.IRR,
		allowed:  cfg.allowedNext(),
	}, nil
}

// SamplesSeen returns the number of samples pushed so far.
func (s *Segmenter) SamplesSeen() int { return s.samplesSeen }

// SegmentsEmitted returns the number of vertices emitted so far.
func (s *Segmenter) SegmentsEmitted() int { return s.segsEmitted }

// StateTransitions returns the number of committed state transitions.
func (s *Segmenter) StateTransitions() int { return s.transitions }

// IRREntries returns how many times the automaton entered IRR.
func (s *Segmenter) IRREntries() int { return s.irrEntries }

// CurrentState returns the state of the segment currently being built.
func (s *Segmenter) CurrentState() plr.State { return s.curState }

// Push feeds one sample and returns any vertices completed by it
// (usually none or one). The returned slice aliases no internal state.
// Samples must arrive in strictly increasing time order; out-of-order
// samples return an error.
func (s *Segmenter) Push(sm plr.Sample) ([]plr.Vertex, error) {
	if s.cfg.PrimaryDim >= len(sm.Pos) {
		return nil, fmt.Errorf("fsm: sample has %d dims, primary dim is %d", len(sm.Pos), s.cfg.PrimaryDim)
	}
	if s.started && sm.T <= s.lastRaw.T {
		return nil, fmt.Errorf("fsm: non-increasing sample time %v after %v", sm.T, s.lastRaw.T)
	}
	s.samplesSeen++
	mSamples.Inc()

	y := sm.Pos[s.cfg.PrimaryDim]

	// Spike rejection (Figure 3d): a sample-to-sample jump far beyond
	// the running jump statistics is an acquisition artifact — hold
	// the last good value instead. Genuine fast motion (a cough)
	// persists, so after maxSpikeHold consecutive rejections the new
	// level is accepted.
	const maxSpikeHold = 3
	if s.started && s.cfg.SpikeSigma > 0 && s.jump.N() >= 10 {
		jump := math.Abs(y - s.lastGoodY)
		limit := s.cfg.SpikeSigma * math.Max(s.jump.Mean()+3*s.jump.StdDev(), 0.2)
		if jump > limit && s.spikeHolds < maxSpikeHold {
			y = s.lastGoodY
			s.spikeHolds++
			mSpikeRejects.Inc()
		} else {
			s.spikeHolds = 0
		}
	}
	if s.started && s.spikeHolds == 0 {
		s.jump.Add(math.Abs(y - s.lastGoodY))
	}
	s.lastGoodY = y

	// Exponential smoothing of the classification signal.
	if !s.started {
		s.smooth = y
	} else if s.cfg.SmoothAlpha > 0 {
		s.smooth = s.cfg.SmoothAlpha*y + (1-s.cfg.SmoothAlpha)*s.smooth
	} else {
		s.smooth = y
	}

	// Maintain the trend window; the sample it evicts gives up its
	// position slot to the new one, so a steady-state Push allocates
	// nothing.
	var slot []float64
	if len(s.win) == s.cfg.SlopeWindow {
		old := s.win[0]
		s.reg.Remove(old.T, old.Pos[s.cfg.PrimaryDim])
		copy(s.win, s.win[1:])
		s.win = s.win[:len(s.win)-1]
		slot = old.Pos[:0]
	}

	// The stored sample keeps the full position but with the cleaned
	// primary dimension, so emitted vertices are denoised too. Window
	// slots are recycled, so whatever outlives the window — the open
	// segment's start, the last sample — holds a copy of its own.
	clean := plr.Sample{T: sm.T, Pos: append(slot, sm.Pos...)}
	clean.Pos[s.cfg.PrimaryDim] = s.smooth

	var out []plr.Vertex
	if !s.started {
		s.started = true
		s.segStart = clean.Clone()
		s.segStartT = clean.T
	}
	s.lastRaw = plr.Sample{T: clean.T, Pos: append(s.lastRaw.Pos[:0], clean.Pos...)}

	s.win = append(s.win, clean)
	s.reg.Add(clean.T, s.smooth)

	if len(s.win) < s.cfg.SlopeWindow {
		return nil, nil // not enough evidence yet
	}

	obs := s.classify(s.reg.Slope())
	if v, emitted := s.transition(obs, clean); emitted {
		out = append(out, v)
	}
	return out, nil
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
// emits a vertex when the current segment closes.
func (s *Segmenter) transition(obs plr.State, at plr.Sample) (plr.Vertex, bool) {
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
		s.pendingSince = at.T
		return plr.Vertex{}, false
	}
	if at.T-s.pendingSince < s.cfg.MinSegmentDur {
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
	boundary := s.boundarySample()

	// A segment whose own duration or amplitude is anomalous (a
	// breath hold, a deep breath) is labeled IRR directly and kept
	// out of the running statistics.
	anomalous := s.segmentAnomalous(boundary)
	stateForV := s.effectiveState()
	if anomalous {
		stateForV = plr.IRR
	}
	v := plr.Vertex{T: s.segStart.T, Pos: s.segStart.Pos, State: stateForV}
	if !anomalous && !s.irr {
		s.noteSegment(s.curState, boundary)
	}

	switch {
	case anomalous || s.fsaViolation(obs):
		s.enterIRR()
	case s.irr:
		s.maybeLeaveIRR(obs)
	}
	s.curState = obs
	s.segStart = boundary.Clone()
	s.segStartT = boundary.T
	s.segsEmitted++
	s.transitions++
	mTransitions.Inc()
	mVertices.Inc()
	return v, true
}

// boundarySample estimates the sample at the physical state
// transition: the pending state was first observed at pendingSince,
// which itself lags the signal by half the trend window. The estimate
// is clamped inside the retained window and strictly after the current
// segment start so vertex times stay increasing.
func (s *Segmenter) boundarySample() plr.Sample {
	n := len(s.win)
	best := s.win[n-1]
	if n < 2 {
		return best
	}
	dt := (s.win[n-1].T - s.win[0].T) / float64(n-1)
	target := s.pendingSince - float64(s.cfg.SlopeWindow)/2*dt
	bestDiff := math.Abs(best.T - target)
	for _, sm := range s.win {
		if sm.T <= s.segStart.T {
			continue
		}
		if d := math.Abs(sm.T - target); d < bestDiff {
			best, bestDiff = sm, d
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
func (s *Segmenter) segmentAnomalous(end plr.Sample) bool {
	if s.irr {
		return false // everything inside an IRR run is already irregular
	}
	k := s.curState
	if !k.Regular() {
		return false
	}
	if s.durStats[k].N() >= 4 {
		dur := end.T - s.segStartT
		mean := s.durStats[k].Mean()
		if mean > 0 && (dur > mean*s.cfg.MaxCycleDeviation || dur < mean/(2*s.cfg.MaxCycleDeviation)) {
			return true
		}
	}
	// Amplitude deviations only mean something for the moving states;
	// EOE plateaus have near-zero, noise-dominated amplitudes.
	if k != plr.EOE && s.ampStats[k].N() >= 4 {
		amp := math.Abs(end.Pos[s.cfg.PrimaryDim] - s.segStart.Pos[s.cfg.PrimaryDim])
		mean := s.ampStats[k].Mean()
		if mean > 1 && (amp > mean*s.cfg.MaxCycleDeviation || amp < mean/(2*s.cfg.MaxCycleDeviation)) {
			return true
		}
	}
	return false
}

func (s *Segmenter) enterIRR() {
	if !s.irr {
		s.irrEntries++
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
func (s *Segmenter) noteSegment(st plr.State, end plr.Sample) {
	dur := end.T - s.segStartT
	amp := math.Abs(end.Pos[s.cfg.PrimaryDim] - s.segStart.Pos[s.cfg.PrimaryDim])
	if st.Valid() {
		s.durStats[st].Add(dur)
		s.ampStats[st].Add(amp)
	}
}

// Flush closes the trailing segment and returns its opening vertex plus
// a final vertex at the last sample time. Call once at end of stream;
// the Segmenter must not be reused afterwards.
func (s *Segmenter) Flush() []plr.Vertex {
	if !s.started {
		return nil
	}
	out := []plr.Vertex{
		{T: s.segStart.T, Pos: s.segStart.Pos, State: s.effectiveState()},
	}
	if s.lastRaw.T > s.segStart.T {
		out = append(out, plr.Vertex{T: s.lastRaw.T, Pos: s.lastRaw.Pos, State: s.effectiveState()})
	}
	mVertices.Add(len(out))
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
