// Package store implements the hierarchical stream database of
// Section 3.2: a database holds patient records; each patient has a set
// of data streams (one per treatment session); each stream is an
// ordered list of PLR vertices produced by the online segmenter.
//
// The store also provides candidate generation for subsequence
// matching: given a query's state signature, it enumerates all vertex
// windows in a stream whose per-segment state order matches — the
// precondition (condition 1) of the paper's Definition 2. A small
// n-gram inverted index over state strings accelerates this for long
// streams; matching falls back to a linear scan when the index is
// disabled (the ablation benchmarks compare both paths).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"stsmatch/internal/plr"
)

// MutationKind labels one hierarchical-database mutation.
type MutationKind uint8

// The mutation kinds a DB emits.
const (
	MutPatientUpsert MutationKind = iota + 1 // patient record added
	MutStreamOpen                            // stream added under a patient
	MutVertexAppend                          // vertices appended to a stream
)

// Mutation is one store change, delivered to the mutation hook. Only
// the fields relevant to Kind are populated. Vertices aliases the
// appended slice and is only valid for the duration of the call.
type Mutation struct {
	Kind      MutationKind
	Patient   PatientInfo  // MutPatientUpsert
	PatientID string       // MutStreamOpen, MutVertexAppend
	SessionID string       // MutStreamOpen, MutVertexAppend
	Vertices  []plr.Vertex // MutVertexAppend
}

// MutationHook observes store mutations (the write-ahead-log seam).
// Hooks run synchronously on the mutating goroutine, while the
// mutated stream's lock is held, so they must be fast and must not
// call back into the store.
type MutationHook func(Mutation)

// hookRef is the shared, swappable hook cell handed down from a DB to
// its patients and streams, so installing a hook on the DB covers
// streams created both before and after installation. It holds an
// immutable slice of hooks, replaced wholesale (copy-on-write), so
// emit never takes a lock.
type hookRef struct {
	fns atomic.Pointer[[]MutationHook]

	// seq counts every mutation emitted through this cell, whether or
	// not hooks are installed. It is the database's logical high-water
	// mark: any write — patient upsert, stream open, vertex append,
	// local or replicated — advances it, so equal sequence numbers mean
	// the database cannot have changed in between. The server exposes
	// it as the X-Store-Seq response header and the gateway keys its
	// result cache on it.
	seq atomic.Uint64
}

func (h *hookRef) emit(m Mutation) {
	if h == nil {
		return
	}
	h.seq.Add(1)
	if fns := h.fns.Load(); fns != nil {
		for _, fn := range *fns {
			fn(m)
		}
	}
}

// PatientInfo carries the patient-level metadata used by the offline
// correlation-discovery experiments.
type PatientInfo struct {
	ID        string `json:"id"`
	Class     string `json:"class,omitempty"`
	Age       int    `json:"age,omitempty"`
	TumorSite string `json:"tumorSite,omitempty"`
}

// Stream is one treatment session's PLR stream. Streams support
// online appends (the real-time ingestion path) and window lookups by
// state signature.
type Stream struct {
	PatientID string
	SessionID string

	mu       sync.RWMutex
	seq      plr.Sequence
	stateStr []byte
	index    *ngramIndex
	hook     *hookRef

	// ampSum holds per-vertex prefix sums of segment displacement
	// norms: ampSum[i] is the sum of |Pos[j+1]-Pos[j]| over segments
	// j < i (so ampSum[0] == 0 and len(ampSum) == len(seq)). The
	// matcher derives a constant-time lower bound on the weighted
	// subsequence distance from these sums; like the n-gram index they
	// are extended incrementally on Append.
	ampSum []float64
	pos    []float64 // the open chunk of stored vertex positions
}

// NewStream creates an empty stream owned by the given patient and
// session.
func NewStream(patientID, sessionID string) *Stream {
	return &Stream{PatientID: patientID, SessionID: sessionID}
}

// Append adds vertices to the end of the stream, maintaining the state
// string and, when enabled, the index. Vertices must continue the
// existing time order and be finite; the batch stops at the first that
// does not or is not.
func (s *Stream) Append(vs ...plr.Vertex) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	appended := 0
	var err error
	for _, v := range vs {
		if n := len(s.seq); n > 0 && v.T <= s.seq[n-1].T {
			err = fmt.Errorf("store: vertex time %v does not advance stream %s", v.T, s.SessionID)
			break
		}
		if !v.State.Valid() {
			err = fmt.Errorf("store: invalid state on appended vertex")
			break
		}
		if !finite(v) {
			err = fmt.Errorf("store: vertex at time %v of stream %s has a non-finite time or position", v.T, s.SessionID)
			break
		}
		if n := len(s.seq); n == 0 {
			s.ampSum = append(s.ampSum, 0)
		} else {
			s.ampSum = append(s.ampSum, s.ampSum[n-1]+dispNorm(s.seq[n-1].Pos, v.Pos))
		}
		// The stored vertex's position is a copy in the stream's open
		// chunk, so that a window's positions are adjacent in memory (and
		// the caller's slice is not retained). A new chunk holds the rest
		// of the batch, or for one-at-a-time appends doubles up to 4 KB.
		if len(s.pos)+len(v.Pos) > cap(s.pos) {
			s.pos = make([]float64, 0, max(len(v.Pos)*(len(vs)-appended), min(2*cap(s.pos), 512), 8))
		}
		if len(v.Pos) > 0 {
			s.pos = append(s.pos, v.Pos...)
			v.Pos = s.pos[len(s.pos)-len(v.Pos) : len(s.pos) : len(s.pos)]
		}
		s.seq = append(s.seq, v)
		s.stateStr = append(s.stateStr, v.State.Byte())
		if s.index != nil {
			s.index.extend(s.stateStr)
		}
		mVertices.Inc()
		appended++
	}
	// Report the prefix that actually landed, even on a mid-batch
	// error: the stream state advanced, so durability must record it.
	if appended > 0 {
		s.hook.emit(Mutation{
			Kind:      MutVertexAppend,
			PatientID: s.PatientID,
			SessionID: s.SessionID,
			Vertices:  vs[:appended],
		})
	}
	return err
}

// Len returns the number of vertices.
func (s *Stream) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.seq)
}

// Seq returns the underlying sequence. The returned slice must be
// treated as read-only; it remains valid across appends (appends may
// reallocate but never mutate existing vertices).
func (s *Stream) Seq() plr.Sequence {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// finite reports whether the vertex's time and every coordinate are
// finite. One NaN or infinity in a stream would poison the distance of
// every window over it (and every prefix sum after it).
func finite(v plr.Vertex) bool {
	ok := !math.IsNaN(v.T) && !math.IsInf(v.T, 0)
	for _, x := range v.Pos {
		ok = ok && !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	return ok
}

// dispNorm is the Euclidean norm of b-a over the dimensions both
// vectors share (streams are homogeneous in practice; the clamp only
// guards against malformed appends).
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

// Snapshot returns the vertex sequence together with its matching
// displacement-norm prefix sums as one consistent view: sums[i] is the
// sum of segment displacement norms |Pos[j+1]-Pos[j]| over j < i, so a
// window of n vertices starting at j has displacement-norm sum
// sums[j+n-1]-sums[j] in O(1). Both slices are read-only for the
// caller and remain valid across appends (appends may reallocate but
// never mutate existing entries).
func (s *Stream) Snapshot() (seq plr.Sequence, sums []float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq, s.ampSum
}

// Window returns the n-vertex window starting at index j.
func (s *Stream) Window(j, n int) plr.Sequence {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq[j : j+n]
}

// EnableIndex builds (or rebuilds) the n-gram index over the stream's
// state string. Subsequent appends keep it current.
func (s *Stream) EnableIndex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index = newNgramIndex()
	s.index.build(s.stateStr)
}

// IndexEnabled reports whether the n-gram index is active.
func (s *Stream) IndexEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index != nil
}

// ScanView is one consistent read-locked view of a stream, everything a
// candidate scan reads: the vertices, their displacement-norm prefix
// sums (Snapshot's), one state byte per vertex and, when the stream is
// indexed, the postings to walk. All four are append-only, so a view
// stays valid (and mutually consistent) across later appends.
type ScanView struct {
	Seq    plr.Sequence
	Amps   []float64
	States []byte
	// Listed restricts the view's windows to the starts in Postings
	// (ascending): the stream's own postings of the signature's first
	// n-gram, consumed in place — a superset of the windows with that
	// signature — or a list the caller substitutes. Otherwise (no index,
	// or a signature shorter than a gram) every start is a candidate.
	Listed   bool
	Postings []int32
	next     int // AppendWindows' cursor into Postings
}

// ScanView returns the view for scanning windows of len(sig)+1 vertices
// whose segment-state signature is sig, under one lock acquisition.
func (s *Stream) ScanView(sig string) ScanView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := ScanView{Seq: s.seq, Amps: s.ampSum, States: s.stateStr}
	if s.index != nil && len(sig) >= ngramSize {
		v.Listed, v.Postings = true, s.index.postings[sig[:ngramSize]]
	}
	return v
}

// AppendWindows appends to dst, until it is full, the view's window
// starts in [from, to) whose signature is sig (every start, for an empty
// sig), and returns the start to resume from: to, once the range is
// exhausted. The caller keeps to within the starts that leave room for
// a whole window. This is the one walk over postings and state string;
// FindWindows and the matcher's funnel both sit on it. A walk over
// postings keeps its place in them between calls, so resuming where the
// previous call stopped costs no search.
func (v *ScanView) AppendWindows(dst []int32, sig string, from, to int) ([]int32, int) {
	switch {
	case v.Listed:
		list, states, i := v.Postings, v.States, v.next
		// The cursor is where the previous block stopped; any other from
		// is searched for.
		if i > len(list) || i > 0 && int(list[i-1]) >= from || i < len(list) && int(list[i]) < from {
			i = sort.Search(len(list), func(k int) bool { return int(list[k]) >= from })
		}
		// A signature of up to 16 states is compared as one or two
		// (overlapping) 8-byte words prepared here, not by a call per
		// posting; a longer one, or a posting within 8 bytes of the
		// stream's end, keeps the byte compare.
		var pad [16]byte
		n := copy(pad[:], sig)
		w0, w1, mask, off := binary.LittleEndian.Uint64(pad[:]), uint64(0), ^uint64(0), 0
		if n < 8 {
			mask = 1<<(8*n) - 1
		} else {
			off = n - 8
			w1 = binary.LittleEndian.Uint64(pad[off:])
		}
		for ; i < len(list); i++ {
			j := int(list[i])
			if j >= to {
				break
			}
			if len(dst) == cap(dst) {
				v.next = i
				return dst, j
			}
			if len(sig) > len(pad) || j+8 > len(states) {
				if string(states[j:j+len(sig)]) != sig {
					continue
				}
			} else if (binary.LittleEndian.Uint64(states[j:])^w0)&mask != 0 ||
				off > 0 && binary.LittleEndian.Uint64(states[j+off:]) != w1 {
				continue
			}
			dst = append(dst, list[i])
		}
		v.next = i
	case sig == "":
		for ; from < to; from++ {
			if len(dst) == cap(dst) {
				return dst, from
			}
			dst = append(dst, int32(from))
		}
	default:
		hay, pat := v.States[:to+len(sig)-1], []byte(sig)
		for from < to {
			i := bytes.Index(hay[from:], pat)
			if i < 0 {
				break
			}
			if len(dst) == cap(dst) {
				return dst, from + i
			}
			dst = append(dst, int32(from+i))
			from += i + 1
		}
	}
	return dst, to
}

// FindWindows returns the start indices of every window of n =
// len(sig)+1 vertices whose segment-state signature equals sig. A
// window needs one more vertex than it has segments, so starts range
// over [0, Len()-len(sig)-1].
func (s *Stream) FindWindows(sig string) []int {
	if len(sig) == 0 {
		return nil
	}
	v := s.ScanView(sig)
	var out []int
	var buf [64]int32
	for from, to := 0, len(v.Seq)-len(sig); from < to; {
		var blk []int32
		blk, from = v.AppendWindows(buf[:0], sig, from, to)
		for _, j := range blk {
			out = append(out, int(j))
		}
	}
	return out
}

// Patient is one patient record: metadata plus its session streams.
type Patient struct {
	Info    PatientInfo
	Streams []*Stream

	hook *hookRef // inherited from the owning DB; nil for bare records
}

// AddStream creates, registers and returns a new stream for the given
// session.
func (p *Patient) AddStream(sessionID string) *Stream {
	st := NewStream(p.Info.ID, sessionID)
	st.hook = p.hook
	p.Streams = append(p.Streams, st)
	mStreams.Inc()
	p.hook.emit(Mutation{
		Kind:      MutStreamOpen,
		PatientID: p.Info.ID,
		SessionID: sessionID,
	})
	return st
}

// StreamBySession returns the stream with the given session ID, or nil.
func (p *Patient) StreamBySession(sessionID string) *Stream {
	for _, st := range p.Streams {
		if st.SessionID == sessionID {
			return st
		}
	}
	return nil
}

// DB is the top-level stream database.
type DB struct {
	mu       sync.RWMutex
	patients []*Patient
	byID     map[string]*Patient
	hook     *hookRef
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{byID: make(map[string]*Patient), hook: &hookRef{}}
}

// SetMutationHook installs the hook observing every mutation of this
// database, including streams that already exist, replacing any hooks
// installed earlier (nil removes them all). The write-ahead log uses
// this seam to journal patient-upserts, stream-opens and
// vertex-appends without the store knowing about files.
func (db *DB) SetMutationHook(h MutationHook) {
	if h == nil {
		db.hook.fns.Store(nil)
		return
	}
	db.hook.fns.Store(&[]MutationHook{h})
}

// AddMutationHook appends a hook to the set installed on this
// database, preserving the ones already there. Hooks run in
// installation order, synchronously, under the same contract as
// SetMutationHook; the signature index chains onto the WAL hook this
// way.
func (db *DB) AddMutationHook(h MutationHook) {
	if h == nil {
		return
	}
	for {
		old := db.hook.fns.Load()
		var next []MutationHook
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, h)
		if db.hook.fns.CompareAndSwap(old, &next) {
			return
		}
	}
}

// ErrDuplicatePatient is returned when adding a patient whose ID
// already exists.
var ErrDuplicatePatient = errors.New("store: duplicate patient ID")

// AddPatient registers a new patient record and returns it.
func (db *DB) AddPatient(info PatientInfo) (*Patient, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if info.ID == "" {
		return nil, errors.New("store: empty patient ID")
	}
	if _, ok := db.byID[info.ID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePatient, info.ID)
	}
	p := &Patient{Info: info, hook: db.hook}
	db.patients = append(db.patients, p)
	db.byID[info.ID] = p
	mPatients.Inc()
	db.hook.emit(Mutation{Kind: MutPatientUpsert, Patient: info})
	return p, nil
}

// Patient returns the patient with the given ID, or nil.
func (db *DB) Patient(id string) *Patient {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.byID[id]
}

// Patients returns the patient records in insertion order. The slice
// is a copy; the records are shared.
func (db *DB) Patients() []*Patient {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Patient, len(db.patients))
	copy(out, db.patients)
	return out
}

// MutationSeq returns the database's monotone mutation counter: the
// number of mutations emitted since the DB was created. Two equal
// readings bracket a quiescent database.
func (db *DB) MutationSeq() uint64 {
	return db.hook.seq.Load()
}

// NumPatients returns the number of patient records.
func (db *DB) NumPatients() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.patients)
}

// Streams returns every stream in the database in patient order.
func (db *DB) Streams() []*Stream { return db.AppendStreams(nil) }

// AppendStreams appends every stream, in patient order, to dst (the
// matcher's reusable form of Streams).
func (db *DB) AppendStreams(dst []*Stream) []*Stream {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, p := range db.patients {
		dst = append(dst, p.Streams...)
	}
	return dst
}

// NumVertices returns the total vertex count across all streams.
func (db *DB) NumVertices() int {
	n := 0
	for _, st := range db.Streams() {
		n += st.Len()
	}
	return n
}

// EnableIndexes builds the n-gram index on every stream.
func (db *DB) EnableIndexes() {
	for _, st := range db.Streams() {
		st.EnableIndex()
	}
}
