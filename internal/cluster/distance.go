// Package cluster implements the offline analysis layer of Section 5:
// whole-stream similarity (Definition 3), patient similarity
// (Definition 4), clustering over the resulting distance matrices, and
// external scoring of clusterings against ground-truth labels — the
// synthetic stand-in for the paper's correlation-discovery
// applications (Section 5.3).
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stsmatch/internal/core"
	"stsmatch/internal/stats"
	"stsmatch/internal/store"
)

// Config controls offline stream/patient distance computation.
type Config struct {
	// Params supplies the offline subsequence distance (vertex
	// weights are forced to 1 per Section 5).
	Params core.Params

	// WindowVertices is the offline subsequence length n in vertices.
	WindowVertices int

	// TopH is the number of most-similar retrieved subsequences each
	// query contributes (Definition 3's h; the paper suggests 10).
	// Queries that cannot find at least TopH candidates with the same
	// state order are outliers and are dropped.
	TopH int

	// QueryStride subsamples the query windows of the outer stream
	// (1 = every window, exactly as the paper defines; larger values
	// trade fidelity for speed on big streams).
	QueryStride int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Params:         core.DefaultParams(),
		WindowVertices: 10, // ~3 breathing cycles
		TopH:           10,
		QueryStride:    1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.WindowVertices < 2 {
		return fmt.Errorf("cluster: WindowVertices must be >= 2, got %d", c.WindowVertices)
	}
	if c.TopH < 1 {
		return fmt.Errorf("cluster: TopH must be >= 1, got %d", c.TopH)
	}
	if c.QueryStride < 1 {
		return fmt.Errorf("cluster: QueryStride must be >= 1, got %d", c.QueryStride)
	}
	return nil
}

// ErrNoComparable is returned when two streams share no common state
// order at all (every query window is an outlier).
var ErrNoComparable = errors.New("cluster: streams share no comparable subsequences")

// searcher computes distances under one configuration that passed
// Validate. It owns the scratch of core's offline top-h search, so the
// matrix builders keep one per worker. Its methods return no error but
// ErrNoComparable.
type searcher struct {
	cfg Config
	top *core.OfflineSearch
}

func newSearcher(cfg Config) *searcher {
	return &searcher{cfg: cfg, top: core.NewOfflineSearch(cfg.Params, cfg.TopH)}
}

// directedDistance computes d(R->S) of Definition 3: every length-n
// window of R asks S for its TopH nearest windows of the same state order
// (one run of the matcher's candidate funnel); a query S cannot answer is
// an outlier; survivors contribute the mean offline distance of those
// TopH. The result is the mean contribution and the surviving queries.
func (sc *searcher) directedDistance(r, s *store.Stream) (float64, int) {
	n := sc.cfg.WindowVertices
	rSeq := r.Seq()
	states := rSeq.StateString() // every window's signature is a slice of it
	q := core.Query{PatientID: r.PatientID, SessionID: r.SessionID}
	var total float64
	used := 0
	for qStart := 0; qStart+n <= len(rSeq); qStart += sc.cfg.QueryStride {
		// When R and S are the same stream, the query window itself (and
		// only it) is excluded; streams that merely share IDs exclude none.
		self := -1
		if r == s {
			self = qStart
		}
		q.Seq = rSeq[qStart : qStart+n]
		if top, ok := sc.top.TopH(q, states[qStart:qStart+n-1], s, self); ok {
			total += stats.Mean(top)
			used++
		}
	}
	if used == 0 {
		return 0, 0
	}
	return total / float64(used), used
}

// StreamDistance computes the symmetric Definition 3 distance between
// two streams. It returns ErrNoComparable when neither direction has a
// surviving query.
func StreamDistance(r, s *store.Stream, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return newSearcher(cfg).streamDistance(r, s)
}

func (sc *searcher) streamDistance(r, s *store.Stream) (float64, error) {
	drs, nrs := sc.directedDistance(r, s)
	dsr, nsr := sc.directedDistance(s, r)
	switch {
	case nrs == 0 && nsr == 0:
		return 0, ErrNoComparable
	case nrs == 0:
		return dsr, nil
	case nsr == 0:
		return drs, nil
	default:
		return (drs + dsr) / 2, nil
	}
}

// PatientDistance computes the Definition 4 distance between two
// patients: the mean stream distance over all cross pairs. Stream
// pairs with no comparable subsequences are skipped; if every pair is
// incomparable, ErrNoComparable is returned.
func PatientDistance(p1, p2 *store.Patient, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return newSearcher(cfg).patientDistance(p1, p2)
}

func (sc *searcher) patientDistance(p1, p2 *store.Patient) (float64, error) {
	var total float64
	pairs := 0
	for _, s1 := range p1.Streams {
		for _, s2 := range p2.Streams {
			if p1 == p2 && s1 == s2 {
				continue // self-pairs excluded within a patient
			}
			if d, err := sc.streamDistance(s1, s2); err == nil {
				total += d
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0, ErrNoComparable
	}
	return total / float64(pairs), nil
}

// eachPair calls do(sc, i, j) for every 0 <= i < j < n, and for i == j
// too when diagonal is set, from GOMAXPROCS workers that each own a
// searcher. do writes what it computes where no other pair's call does.
// The only error is an invalid configuration.
func eachPair(n int, diagonal bool, cfg Config, do func(sc *searcher, i, j int)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var next atomic.Int64 // the next cell of the n x n grid, row-major
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newSearcher(cfg)
			for k := int(next.Add(1)) - 1; k < n*n; k = int(next.Add(1)) - 1 {
				if i, j := k/n, k%n; i < j || i == j && diagonal {
					do(sc, i, j)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// PatientDistanceMatrix computes the full symmetric patient distance
// matrix in parallel. Incomparable pairs receive the largest observed
// finite distance times 1.5 (so clustering treats them as far apart
// rather than failing).
func PatientDistanceMatrix(patients []*store.Patient, cfg Config) (*stats.DistMatrix, error) {
	n := len(patients)
	m := stats.NewDistMatrix(n)
	incomparable := make([]bool, n*n)
	err := eachPair(n, false, cfg, func(sc *searcher, i, j int) {
		d, err := sc.patientDistance(patients[i], patients[j])
		m.Set(i, j, d)
		incomparable[i*n+j] = err != nil
	})
	if err != nil {
		return nil, err
	}
	maxFinite := 0.0
	for k := range incomparable {
		maxFinite = max(maxFinite, m.At(k/n, k%n))
	}
	if maxFinite == 0 {
		maxFinite = 1
	}
	for k, miss := range incomparable {
		if miss {
			m.Set(k/n, k%n, maxFinite*1.5)
		}
	}
	return m, nil
}

// StreamDistanceMatrix computes the pairwise distance matrix over a set
// of streams and, separately (stats.DistMatrix forces a zero diagonal),
// each stream's self-distance d(R,R), which Definition 3 makes non-zero
// in general: Figure 8b reports it as the smallest value in each row.
// An incomparable pair, or stream against itself, is left at 0.
func StreamDistanceMatrix(streams []*store.Stream, cfg Config) (*stats.DistMatrix, []float64, error) {
	n := len(streams)
	m := stats.NewDistMatrix(n)
	self := make([]float64, n)
	err := eachPair(n, true, cfg, func(sc *searcher, i, j int) {
		d, _ := sc.streamDistance(streams[i], streams[j])
		if i == j {
			self[i] = d
		} else {
			m.Set(i, j, d)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return m, self, nil
}
