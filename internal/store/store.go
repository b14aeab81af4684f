// Package store implements the hierarchical stream database of
// Section 3.2: a database holds patient records; each patient has a set
// of data streams (one per treatment session); each stream is an
// ordered list of PLR vertices produced by the online segmenter.
//
// The store also provides candidate generation for subsequence
// matching: given a query's state signature, it enumerates all vertex
// windows in a stream whose per-segment state order matches — the
// precondition (condition 1) of the paper's Definition 2. Every stream
// keeps a small n-gram inverted index over its state string, so a
// signature of a gram or more walks the postings of its first gram; a
// shorter one scans the state string.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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

// MutationHook observes store mutations (standing queries' seam).
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
}

func (h *hookRef) emit(m Mutation) {
	if h == nil {
		return
	}
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
//
// A stored vertex is a row of four dense, pointer-free, append-only
// columns, which is all that searches, predictions, standing evaluations,
// snapshots and replication read (through ScanView). The plr.Sequence
// form is a memo for the callers that ask for it (Seq, Snapshot): a
// stream nobody asks never pays the 40-byte vertex headers.
type Stream struct {
	PatientID string
	SessionID string

	mu    sync.RWMutex
	index ngramIndex
	hook  *hookRef

	// cols holds the columns (ScanView documents them; its postings
	// fields stay zero here). Amps is extended incrementally on Append,
	// like the n-gram index.
	cols ScanView

	// memo is Seq()'s materialisation of the first len(memo) vertices;
	// their positions alias cols.Pos as it was when each was built.
	memo plr.Sequence
}

// NewStream creates an empty stream owned by the given patient and
// session, with its n-gram index.
func NewStream(patientID, sessionID string) *Stream {
	return &Stream{PatientID: patientID, SessionID: sessionID,
		index: ngramIndex{postings: make(map[uint32][]int32)}}
}

// Append adds vertices to the end of the stream, maintaining the
// columns and the index. Vertices must continue the existing time
// order, be finite and have the stream's dimensionality (the first
// vertex fixes it, at most plr.MaxDims); the batch stops at the first
// that does not.
func (s *Stream) Append(vs ...plr.Vertex) error {
	if len(vs) == 0 {
		return nil // what a segmenter emits for most samples
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cols.Len() == 0 {
		if len(vs[0].Pos) > plr.MaxDims {
			return fmt.Errorf("store: vertex at time %v of stream %s has %d dimensions, at most %d are kept",
				vs[0].T, s.SessionID, len(vs[0].Pos), plr.MaxDims)
		}
		s.cols.Dims = len(vs[0].Pos)
	}
	s.reserve(len(vs))
	appended := 0
	var err error
	for _, v := range vs {
		if err = s.push(v.T, v.Pos, v.State); err != nil {
			break
		}
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
	} else if s.cols.Len() == 0 {
		s.cols.Dims = 0 // a refused first vertex fixes nothing
	}
	return err
}

// reserve makes room for n more vertices in every column, so a batch
// grows each of them once. Called with s.mu held and cols.Dims set.
func (s *Stream) reserve(n int) {
	c := &s.cols
	c.T = slices.Grow(c.T, n)
	c.Pos = slices.Grow(c.Pos, n*c.Dims)
	c.States = slices.Grow(c.States, n)
	c.Amps = slices.Grow(c.Amps, n)
}

// push validates and stores one vertex, copying its position. Called
// with s.mu held and, for a first vertex, cols.Dims set.
func (s *Stream) push(t float64, pos []float64, state plr.State) error {
	c := &s.cols
	n := len(c.T)
	switch {
	case n > 0 && t <= c.T[n-1]:
		return fmt.Errorf("store: vertex time %v does not advance stream %s", t, s.SessionID)
	case !state.Valid():
		return fmt.Errorf("store: invalid state on appended vertex")
	case !finite(t, pos):
		return fmt.Errorf("store: vertex at time %v of stream %s has a non-finite time or position", t, s.SessionID)
	case len(pos) != c.Dims:
		return fmt.Errorf("store: vertex at time %v of stream %s has %d dimensions, the stream has %d", t, s.SessionID, len(pos), c.Dims)
	}
	if n == 0 {
		c.Amps = append(c.Amps, 0)
	} else {
		c.Amps = append(c.Amps, c.Amps[n-1]+dispNorm(c.Pos[(n-1)*c.Dims:], pos))
	}
	c.T = append(c.T, t)
	c.Pos = append(c.Pos, pos...)
	c.States = append(c.States, state.Byte())
	s.index.extend(c.States)
	mVertices.Inc()
	return nil
}

// Len returns the number of vertices.
func (s *Stream) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cols.Len()
}

// Seq returns the stream as a plr.Sequence, for callers at the API edge
// that want vertices rather than columns. It is materialised on the first
// call and extended on later ones. The returned slice must be treated as
// read-only; it remains valid across appends (appends may reallocate but
// never mutate existing vertices).
func (s *Stream) Seq() plr.Sequence {
	s.mu.RLock()
	memo, n := s.memo, s.cols.Len()
	s.mu.RUnlock()
	if len(memo) == n {
		return memo
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memo = slices.Grow(s.memo, s.cols.Len()-len(s.memo))
	for i := len(s.memo); i < s.cols.Len(); i++ {
		s.memo = append(s.memo, s.cols.Vertex(i))
	}
	return s.memo
}

// finite reports whether the time and every coordinate are finite. One
// NaN or infinity in a stream would poison the distance of every window
// over it (and every prefix sum after it).
func finite(t float64, pos []float64) bool {
	ok := !math.IsNaN(t) && !math.IsInf(t, 0)
	for _, x := range pos {
		ok = ok && !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	return ok
}

// dispNorm is the Euclidean norm of b-a, a read as long as b.
func dispNorm(a, b []float64) float64 {
	var s float64
	for k, x := range b {
		d := x - a[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// Snapshot returns the vertex sequence (Seq) together with its matching
// displacement-norm prefix sums as one consistent view: sums[i] is the
// sum of segment displacement norms |Pos[j+1]-Pos[j]| over j < i, so a
// window of n vertices starting at j has displacement-norm sum
// sums[j+n-1]-sums[j] in O(1). Both slices are read-only for the
// caller and remain valid across appends (appends may reallocate but
// never mutate existing entries).
func (s *Stream) Snapshot() (seq plr.Sequence, sums []float64) {
	seq = s.Seq()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return seq, s.cols.Amps[:len(seq)]
}

// Window returns a copy of the n-vertex window starting at index j.
func (s *Stream) Window(j, n int) plr.Sequence {
	v := s.ScanView("")
	return v.Window(j, n)
}

// EnableIndex does nothing: every stream is indexed from NewStream on.
//
// Deprecated: no-op.
func (s *Stream) EnableIndex() {}

// ScanView is one consistent read-locked view of a stream's columns,
// everything a reader of stored vertices needs: vertex i has time T[i],
// position Pos[i*Dims:(i+1)*Dims], signature letter States[i] and
// displacement-norm prefix sum Amps[i] (Snapshot's sums). For a
// signature of a gram or more the view also carries the postings to
// walk. All of it is append-only, so a view stays valid (and mutually
// consistent) across later appends.
type ScanView struct {
	T      []float64
	Pos    []float64
	Dims   int
	Amps   []float64
	States []byte
	// Listed restricts the view's windows to the starts in Postings
	// (ascending): the stream's own postings of the signature's first
	// n-gram, consumed in place — a superset of the windows with that
	// signature. Otherwise (a signature shorter than a gram, or none)
	// every start is a candidate.
	Listed   bool
	Postings []int32
	next     int // AppendWindows' cursor into Postings
}

// ScanView returns the view for scanning windows of len(sig)+1 vertices
// whose segment-state signature is sig, under one lock acquisition. A
// reader that walks no windows passes "".
func (s *Stream) ScanView(sig string) ScanView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.cols
	if len(sig) >= ngramSize {
		v.Listed, v.Postings = true, s.index.postings[gramKey(sig)]
	}
	return v
}

// Track returns the time and position columns alone (dims coordinates
// per vertex), for a reader that interpolates along the stream once per
// match: three words in registers where a ScanView is copied through
// memory. The slices are append-only, like a view's.
func (s *Stream) Track() (ts, pos []float64, dims int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cols.T, s.cols.Pos, s.cols.Dims
}

// Len returns the number of vertices in the view.
func (v *ScanView) Len() int { return len(v.T) }

// Vertex returns vertex i in plr form. Its position aliases the column
// and must be treated as read-only.
func (v *ScanView) Vertex(i int) plr.Vertex {
	lo, hi := i*v.Dims, (i+1)*v.Dims
	return plr.Vertex{T: v.T[i], Pos: v.Pos[lo:hi:hi], State: plr.StateOfByte(v.States[i])}
}

// Window materialises the n-vertex window starting at index j.
func (v *ScanView) Window(j, n int) plr.Sequence {
	out := make(plr.Sequence, n)
	for i := range out {
		out[i] = v.Vertex(j + i)
	}
	return out
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
		// A signature of up to 24 states is compared as one, two or
		// three (overlapping) 8-byte words prepared here, not by a call
		// per posting; a longer one, or a posting within 8 bytes of the
		// stream's end, keeps the byte compare.
		var pad [24]byte
		n := copy(pad[:], sig)
		w0, w1, mask, off := binary.LittleEndian.Uint64(pad[:]), uint64(0), ^uint64(0), 0
		if n < 8 {
			mask = 1<<(8*n) - 1
		} else {
			off = n - 8
			w1 = binary.LittleEndian.Uint64(pad[off:])
		}
		w2 := binary.LittleEndian.Uint64(pad[8:]) // the middle word, compared when off > 8
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
				off > 0 && binary.LittleEndian.Uint64(states[j+off:]) != w1 ||
				off > 8 && binary.LittleEndian.Uint64(states[j+8:]) != w2 {
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
	for from, to := 0, v.Len()-len(sig); from < to; {
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
	db   *DB      // the owning DB; nil for bare records
}

// AddStream creates, registers and returns a new stream for the given
// session. The append holds the owning DB's lock: a search lists the
// streams under it (AppendStreams), outside any lock of the caller's.
func (p *Patient) AddStream(sessionID string) *Stream {
	st := NewStream(p.Info.ID, sessionID)
	st.hook = p.hook
	if p.db != nil {
		p.db.mu.Lock()
	}
	p.Streams = append(p.Streams, st)
	if p.db != nil {
		p.db.mu.Unlock()
	}
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

// AddMutationHook appends a hook to the set observing every mutation
// of this database, including streams that already exist, preserving
// the ones already there. Hooks run in installation order,
// synchronously, under MutationHook's contract; standing-query
// evaluation observes appends this way.
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
	p := &Patient{Info: info, hook: db.hook, db: db}
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

// NumPatients returns the number of patient records.
func (db *DB) NumPatients() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.patients)
}

// Streams returns every stream in the database in patient order.
func (db *DB) Streams() []*Stream { return db.AppendStreams(nil) }

// AppendStreams appends every stream, in patient order, to dst (the
// matcher's reusable form of Streams). The list only grows: AddStream
// inserts a stream and none is ever removed, so two listings of one
// database that are equally long are the same list in the same order.
// That is how a matcher tells that the list its kept top-k answers
// ranked has not changed, with no counter to read beside the listing.
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

// EnableIndexes does nothing: every stream is indexed from NewStream on.
//
// Deprecated: no-op.
func (db *DB) EnableIndexes() {}
