// Package sigindex implements the persistent window-signature index:
// an inverted index over PLR window signatures — the state-order
// string of each fixed-length window plus the quantized bucket of its
// amplitude (displacement-norm sum) and duration — answering envelope
// probes over window aggregates (the KV-match construction adapted to
// model-based PLR windows). It is a library only the benchmark module
// uses: the matcher scans each stream's postings and links none of it
// (DESIGN §13).
//
// For every stream position j and every indexed window length
// l in [MinSegments, MaxSegments], the window of l segments starting
// at vertex j contributes one posting to the cell
//
//	(states[j..j+l), floor(amp/AmpBucket), floor(dur/DurBucket))
//
// where amp is the window's displacement-norm sum and dur its
// duration. The amp stored in the posting is bit-for-bit identical to
// the difference of the store's displacement prefix sums that the
// matcher's lower bound reads, because the index maintains the same
// running sum with the same operation order. Quantization only decides
// which cells a probe visits; every probe re-checks the exact stored
// amp/dur against its envelope, so bucket widths never change the
// probed set, only the constant factors.
//
// The index is derived state: built deterministically from a database
// with BuildFrom and then maintained incrementally from the store's
// mutation hook. Streams the index cannot vouch for — duplicate session
// keys, appends observed mid-stream, or any shadow/stream length
// mismatch — are poisoned or simply reported stale via Coverage, and a
// caller scans exactly those streams instead.
//
// Locking: OnMutation runs under the mutated stream's lock (the store
// hook contract) and takes the index lock inside it; Probe, Coverage,
// Stats and Dump take only the index lock and copy results out before
// returning, so a caller never holds index and stream locks at the
// same time.
package sigindex

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// Config fixes the shape of the index: which window lengths (in
// segments) are posted, and the quantization bucket widths for the
// amplitude and duration coordinates.
type Config struct {
	// MinSegments and MaxSegments bound the indexed window lengths,
	// inclusive. A query is index-eligible when its segment count lies
	// in this range.
	MinSegments int `json:"minSegments"`
	MaxSegments int `json:"maxSegments"`
	// AmpBucket and DurBucket are the cell widths for the quantized
	// amplitude (displacement-norm sum) and duration coordinates.
	AmpBucket float64 `json:"ampBucket"`
	DurBucket float64 `json:"durBucket"`
}

// DefaultConfig covers every legal query length of the default matcher
// parameters (MinQueryVertices..MaxQueryVertices vertices, i.e. 9..24
// segments) with bucket widths sized for respiratory-scale data
// (millimetre amplitudes summing to tens per window, second-scale
// durations).
func DefaultConfig() Config {
	return Config{MinSegments: 9, MaxSegments: 24, AmpBucket: 4, DurBucket: 4}
}

// Validate checks the structural invariants of the configuration.
func (c Config) Validate() error {
	if c.MinSegments < 1 {
		return fmt.Errorf("sigindex: MinSegments %d < 1", c.MinSegments)
	}
	if c.MaxSegments < c.MinSegments {
		return fmt.Errorf("sigindex: MaxSegments %d < MinSegments %d", c.MaxSegments, c.MinSegments)
	}
	if c.MaxSegments > maxSignatureStates {
		return fmt.Errorf("sigindex: MaxSegments %d too large", c.MaxSegments)
	}
	if !(c.AmpBucket > 0) || math.IsInf(c.AmpBucket, 0) {
		return fmt.Errorf("sigindex: AmpBucket %v must be a positive finite number", c.AmpBucket)
	}
	if !(c.DurBucket > 0) || math.IsInf(c.DurBucket, 0) {
		return fmt.Errorf("sigindex: DurBucket %v must be a positive finite number", c.DurBucket)
	}
	return nil
}

// Covers reports whether windows of the given segment count are
// indexed, i.e. whether a query of that length can be served by probes.
func (c Config) Covers(segments int) bool {
	return segments >= c.MinSegments && segments <= c.MaxSegments
}

// StreamKey identifies one stream (patient session) in the index.
type StreamKey struct {
	PatientID string
	SessionID string
}

// posting is one indexed window occurrence. amp and dur are the exact
// (unquantized) window coordinates; stream is an index into
// Index.streams.
type posting struct {
	stream int32
	start  int32
	amp    float64
	dur    float64
}

// cellKey addresses one quantized cell under a state-order string.
type cellKey struct {
	amp, dur int32
}

// sigEntry holds every posting sharing one state-order string,
// partitioned into quantized cells, plus the bucket bounding box and
// total count a probe needs to clamp its rectangle and to detect that
// an envelope admitted everything (Exhaustive).
type sigEntry struct {
	cells                  map[cellKey][]posting
	total                  int
	aMin, aMax, dMin, dMax int32
}

// vinfo is the per-vertex shadow state retained in a stream's ring
// buffer: the segment state starting at the vertex, the running
// displacement-norm prefix sum, and the vertex time.
type vinfo struct {
	state byte
	cum   float64
	t     float64
}

// streamShadow tracks one stream's tail so each appended vertex can be
// turned into window postings without re-reading the store. The ring
// holds the last MaxSegments+1 vertices, indexed by global vertex
// number modulo capacity.
type streamShadow struct {
	key      StreamKey
	n        int // vertices observed
	lastPos  []float64
	ring     []vinfo
	sigBuf   []byte // scratch: states of the trailing MaxSegments window
	poisoned bool
}

// StreamCoverage is what the index knows about one stream, consumed by
// a caller to decide probe vs scan-fallback per stream.
type StreamCoverage struct {
	// Vertices is how many vertices of the stream the index has
	// absorbed; a caller trusts the index for a stream only when
	// this equals the stream's live length.
	Vertices int
	// Poisoned marks a stream the index refuses to answer for
	// (duplicate key, mid-stream attach, or invalid append).
	Poisoned bool
}

// Stats is a point-in-time summary of the index, surfaced through
// /v1/healthz.
type Stats struct {
	Streams         int    `json:"streams"`
	PoisonedStreams int    `json:"poisonedStreams"`
	Signatures      int    `json:"signatures"`
	Windows         int64  `json:"windows"`
	Config          Config `json:"config"`
}

// Index is the inverted window-signature index. Safe for concurrent
// use.
type Index struct {
	cfg Config

	mu       sync.RWMutex
	sigs     map[string]*sigEntry
	streams  []*streamShadow
	byKey    map[StreamKey]int32
	windows  int64
	poisoned int
}

// New creates an empty index with the given configuration.
func New(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	registerMetrics()
	return &Index{
		cfg:   cfg,
		sigs:  make(map[string]*sigEntry),
		byKey: make(map[StreamKey]int32),
	}, nil
}

// Config returns the index configuration.
func (x *Index) Config() Config { return x.cfg }

// BuildFrom absorbs every stream of the database. It is meant to run
// at construction/recovery time, before the database serves concurrent
// writes; interleaved appends are made safe (not wrong) by the
// Coverage length check, which sends any stream the index trails back
// to the scan path.
func (x *Index) BuildFrom(db *store.DB) {
	for _, st := range db.Streams() {
		seq := st.Window(0, st.Len()) // a copy dropped after the build, not the stream's memo
		x.mu.Lock()
		si, fresh := x.registerLocked(StreamKey{PatientID: st.PatientID, SessionID: st.SessionID})
		if fresh {
			x.appendLocked(si, seq)
		}
		x.mu.Unlock()
	}
	x.publishGauges()
}

// OnMutation is the store hook: it mirrors stream-opens and
// vertex-appends into the index. Install with db.AddMutationHook.
func (x *Index) OnMutation(m store.Mutation) {
	switch m.Kind {
	case store.MutStreamOpen:
		x.mu.Lock()
		x.registerLocked(StreamKey{PatientID: m.PatientID, SessionID: m.SessionID})
		x.mu.Unlock()
		x.publishGauges()
	case store.MutVertexAppend:
		key := StreamKey{PatientID: m.PatientID, SessionID: m.SessionID}
		x.mu.Lock()
		si, ok := x.byKey[key]
		if !ok {
			// Appends to a stream the index never saw open: it cannot
			// reconstruct the earlier vertices, so it registers the
			// stream poisoned and leaves it to the scan fallback.
			si, _ = x.registerLocked(key)
			x.poisonLocked(x.streams[si])
		}
		x.appendLocked(si, m.Vertices)
		x.mu.Unlock()
		x.publishGauges()
	}
}

// registerLocked adds a shadow for the key, or — on a duplicate key —
// poisons the existing shadow, since the index can no longer tell the
// two streams' appends apart. Returns the shadow's slot and whether it
// was freshly created.
func (x *Index) registerLocked(key StreamKey) (int32, bool) {
	if si, ok := x.byKey[key]; ok {
		x.poisonLocked(x.streams[si])
		return si, false
	}
	sh := &streamShadow{
		key:  key,
		ring: make([]vinfo, x.cfg.MaxSegments+1),
	}
	x.streams = append(x.streams, sh)
	si := int32(len(x.streams) - 1)
	x.byKey[key] = si
	return si, true
}

func (x *Index) poisonLocked(sh *streamShadow) {
	if !sh.poisoned {
		sh.poisoned = true
		x.poisoned++
	}
}

// appendLocked absorbs vertices into a shadow, posting every window
// that ends at each new vertex. The running displacement sum uses the
// same operation order as the store's prefix sums, so posted amps are
// bit-identical to what the matcher's lower bound computes.
func (x *Index) appendLocked(si int32, vs []plr.Vertex) {
	sh := x.streams[si]
	c := len(sh.ring)
	for i := range vs {
		if sh.poisoned {
			return
		}
		v := &vs[i]
		gi := sh.n // global vertex number
		var cum float64
		if gi > 0 {
			prev := sh.ring[(gi-1)%c]
			if v.T <= prev.t {
				// The store rejects non-advancing times, so the hook
				// should never deliver one; poison defensively.
				x.poisonLocked(sh)
				return
			}
			cum = prev.cum + dispNorm(sh.lastPos, v.Pos)
		}
		sh.ring[gi%c] = vinfo{state: v.State.Byte(), cum: cum, t: v.T}
		sh.lastPos = append(sh.lastPos[:0], v.Pos...)
		sh.n = gi + 1
		x.postWindowsLocked(si, sh, gi)
	}
}

// postWindowsLocked inserts one posting per indexed window length
// ending at global vertex gi.
func (x *Index) postWindowsLocked(si int32, sh *streamShadow, gi int) {
	if gi < x.cfg.MinSegments {
		return
	}
	c := len(sh.ring)
	// States of the maximal trailing window [lo..gi); each shorter
	// window's signature is a suffix of this scratch.
	lo := gi - x.cfg.MaxSegments
	if lo < 0 {
		lo = 0
	}
	sh.sigBuf = sh.sigBuf[:0]
	for v := lo; v < gi; v++ {
		sh.sigBuf = append(sh.sigBuf, sh.ring[v%c].state)
	}
	end := sh.ring[gi%c]
	for l := x.cfg.MinSegments; l <= x.cfg.MaxSegments; l++ {
		j := gi - l
		if j < 0 {
			break
		}
		begin := sh.ring[j%c]
		sig := sh.sigBuf[len(sh.sigBuf)-l:]
		x.insertLocked(si, sig, int32(j), end.cum-begin.cum, end.t-begin.t)
	}
}

func (x *Index) insertLocked(si int32, sig []byte, start int32, amp, dur float64) {
	e := x.sigs[string(sig)]
	if e == nil {
		e = &sigEntry{cells: make(map[cellKey][]posting)}
		x.sigs[string(sig)] = e
	}
	ck := cellKey{amp: quantize(amp, x.cfg.AmpBucket), dur: quantize(dur, x.cfg.DurBucket)}
	if e.total == 0 {
		e.aMin, e.aMax, e.dMin, e.dMax = ck.amp, ck.amp, ck.dur, ck.dur
	} else {
		if ck.amp < e.aMin {
			e.aMin = ck.amp
		}
		if ck.amp > e.aMax {
			e.aMax = ck.amp
		}
		if ck.dur < e.dMin {
			e.dMin = ck.dur
		}
		if ck.dur > e.dMax {
			e.dMax = ck.dur
		}
	}
	e.cells[ck] = append(e.cells[ck], posting{stream: si, start: start, amp: amp, dur: dur})
	e.total++
	x.windows++
}

// dispNorm mirrors store's displacement norm exactly (Euclidean over
// the shared dimensions), keeping shadow prefix sums bit-identical to
// the store's.
func dispNorm(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for k := 0; k < n; k++ {
		d := b[k] - a[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// ProbeQuery asks for every posting of one state-order string whose
// exact amplitude and duration fall inside the envelope.
type ProbeQuery struct {
	Sig          string
	AmpLo, AmpHi float64
	DurLo, DurHi float64
	// Widened marks a re-probe with a grown envelope (any round after
	// the first of one search); it feeds the widenings metric.
	Widened bool
}

// ProbeResult is one probe's answer, fully copied out of the index.
type ProbeResult struct {
	// Starts maps each stream with at least one hit to its ascending
	// window start positions.
	Starts map[StreamKey][]int32
	// Candidates is the total number of starts across streams.
	Candidates int
	// Exhaustive reports that the envelope admitted every posting
	// stored under the signature: widening further cannot produce new
	// candidates.
	Exhaustive bool
	// Cells is the number of non-empty index cells visited.
	Cells int
}

// Probe runs one envelope probe. Infinite envelope bounds are legal
// and clamp to the buckets actually present.
func (x *Index) Probe(q ProbeQuery) ProbeResult {
	mProbes.Inc()
	if q.Widened {
		mWidenings.Inc()
	}
	x.mu.RLock()
	defer x.mu.RUnlock()

	var res ProbeResult
	e := x.sigs[q.Sig]
	if e == nil || e.total == 0 {
		res.Exhaustive = true
		return res
	}
	aLo := clampBucket(quantize(q.AmpLo, x.cfg.AmpBucket), e.aMin, e.aMax)
	aHi := clampBucket(quantize(q.AmpHi, x.cfg.AmpBucket), e.aMin, e.aMax)
	dLo := clampBucket(quantize(q.DurLo, x.cfg.DurBucket), e.dMin, e.dMax)
	dHi := clampBucket(quantize(q.DurHi, x.cfg.DurBucket), e.dMin, e.dMax)

	perStream := make(map[int32][]int32)
	scanCell := func(cell []posting) {
		res.Cells++
		for _, p := range cell {
			if p.amp < q.AmpLo || p.amp > q.AmpHi || p.dur < q.DurLo || p.dur > q.DurHi {
				continue
			}
			perStream[p.stream] = append(perStream[p.stream], p.start)
			res.Candidates++
		}
	}
	if aLo <= aHi && dLo <= dHi {
		// Visit the bucket rectangle cell by cell, unless iterating the
		// signature's populated cells directly is cheaper.
		area := (int64(aHi) - int64(aLo) + 1) * (int64(dHi) - int64(dLo) + 1)
		if area <= int64(len(e.cells)) {
			for a := aLo; a <= aHi; a++ {
				for d := dLo; d <= dHi; d++ {
					if cell, ok := e.cells[cellKey{amp: a, dur: d}]; ok {
						scanCell(cell)
					}
				}
			}
		} else {
			for ck, cell := range e.cells {
				if ck.amp >= aLo && ck.amp <= aHi && ck.dur >= dLo && ck.dur <= dHi {
					scanCell(cell)
				}
			}
		}
	}
	res.Exhaustive = res.Candidates == e.total
	if len(perStream) > 0 {
		res.Starts = make(map[StreamKey][]int32, len(perStream))
		for si, starts := range perStream {
			sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
			res.Starts[x.streams[si].key] = starts
		}
	}
	return res
}

func clampBucket(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Coverage snapshots, per stream, how far the index has absorbed it
// and whether it is poisoned. The matcher scans (rather than probes)
// every stream whose coverage is missing, poisoned, or shorter than
// the live stream.
func (x *Index) Coverage() map[StreamKey]StreamCoverage {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make(map[StreamKey]StreamCoverage, len(x.streams))
	for _, sh := range x.streams {
		out[sh.key] = StreamCoverage{Vertices: sh.n, Poisoned: sh.poisoned}
	}
	return out
}

// Stats returns a point-in-time summary.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return Stats{
		Streams:         len(x.streams),
		PoisonedStreams: x.poisoned,
		Signatures:      len(x.sigs),
		Windows:         x.windows,
		Config:          x.cfg,
	}
}

func (x *Index) publishGauges() {
	x.mu.RLock()
	w, s, p := x.windows, len(x.streams), x.poisoned
	x.mu.RUnlock()
	mWindows.Set(w)
	mStreams.Set(int64(s))
	mPoisoned.Set(int64(p))
}

// Dump renders every cell and posting in a deterministic text form
// (cells ordered by encoded signature, postings by stream key and
// start, floats as exact bit patterns). Two indexes over identical
// data produce identical dumps regardless of build order; the crash
// recovery tests compare rebuilt and fresh indexes this way.
func (x *Index) Dump() []byte {
	x.mu.RLock()
	defer x.mu.RUnlock()
	type flatCell struct {
		key  string // encoded Signature, the sort key
		sig  Signature
		cell []posting
	}
	flat := make([]flatCell, 0, len(x.sigs))
	for states, e := range x.sigs {
		for ck, cell := range e.cells {
			sig := Signature{States: states, Amp: ck.amp, Dur: ck.dur}
			flat = append(flat, flatCell{key: string(sig.Encode()), sig: sig, cell: cell})
		}
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].key < flat[j].key })
	var out []byte
	for _, fc := range flat {
		out = append(out, fmt.Sprintf("%x %s (%d,%d)\n", fc.key, fc.sig.States, fc.sig.Amp, fc.sig.Dur)...)
		lines := make([]string, 0, len(fc.cell))
		for _, p := range fc.cell {
			k := x.streams[p.stream].key
			lines = append(lines, fmt.Sprintf("  %s/%s j=%d amp=%016x dur=%016x\n",
				k.PatientID, k.SessionID, p.start, math.Float64bits(p.amp), math.Float64bits(p.dur)))
		}
		sort.Strings(lines)
		for _, ln := range lines {
			out = append(out, ln...)
		}
	}
	return out
}
