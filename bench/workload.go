package main

import "fmt"

// workloadSpec is one row of the workload table in README.md, which
// also says why each workload is there. The op counts are per client
// per round and are the "fixed work" of the protocol: they depend on
// nothing but these constants, so both sides of any comparison do
// identical work. The query count is a multiple of poolBlock, so a
// round asks for whole blocks of the pool and keeps its make-up. A
// round's ingest count is sized so a round grows the corpus by at
// most ~5 % (one live session streams for a few minutes, as a
// treatment session does); every round starts from a fresh build, so
// growth never accumulates.
type workloadSpec struct {
	name        string
	patients    int
	histSeconds float64
	clients     int
	http        bool // served over loopback HTTP rather than called in-process
	shards      int  // >0: sharded behind a gateway at R=2
	subs        int  // standing subscriptions armed on each live patient
	hotSet      bool // half of the queries ask for one of hotQueries hot windows, twice running
	// batchSeconds is how many 30-sample batches one ingest op appends
	// (0 means 1). corpus_large appends 8: a 5 us op straight after a
	// scan of megabytes times little but cache misses, which is what the
	// neighbours on the host perturb most (its spread over ten runs was
	// 24 %), and 8 s of signal is nothing to a 96k-vertex corpus.
	batchSeconds int
	// per-client op counts of one round
	queries, predicts, ingests int
	// refRounds is how many rounds fill refSeconds of builds plus ops on
	// the 2-core reference box; -seconds scales it.
	refRounds int
	// coldRounds, when > 0, is how many of a run's first rounds build
	// cold; the rest restore from the oracles' segmentation (see
	// loadHistory). Where segmentation is half of a round (corpus_large)
	// this buys half as many replays again of every op from the same
	// run time.
	coldRounds int
}

func (s workloadSpec) build(in *inputs) (deployment, error) {
	if s.http {
		return buildHTTP(in)
	}
	return buildInproc(in)
}

// verifies reports whether round i ends with the oracle. The served
// workloads' oracle asks the whole query pool again over HTTP, which is
// worth a quarter of a round, so they run it every fourth round.
func (s workloadSpec) verifies(i int) bool { return !s.http || i%4 == 0 }

// cold reports whether round i does a full cold build.
func (s workloadSpec) cold(i int) bool { return s.coldRounds == 0 || i < s.coldRounds }

const (
	refSeconds = 20
	minRounds  = 3
)

func (s workloadSpec) opsPerRound() int {
	return s.clients * (s.queries + s.predicts + s.ingests)
}

// rounds is the number of measured rounds for a run of the given
// nominal length: at least three replays of every op, except in a
// smoke run.
func (s workloadSpec) rounds(seconds int) int {
	if s.refRounds == 1 {
		return 1
	}
	return max(minRounds, (s.refRounds*seconds+refSeconds/2)/refSeconds)
}

var workloads = []workloadSpec{
	{
		name:     "corpus_small",
		patients: 12, histSeconds: 180, clients: 1,
		queries: 448, predicts: 128, ingests: 64,
		refRounds: 320,
	},
	{
		name:     "corpus_large",
		patients: 200, histSeconds: 600, clients: 1,
		queries: 128, predicts: 36, ingests: 18, batchSeconds: 8,
		refRounds: 60, coldRounds: 8,
	},
	{
		name:     "online",
		patients: 24, histSeconds: 300, clients: 1, http: true, subs: 2,
		queries: 24, predicts: 176, ingests: 200,
		refRounds: 110,
	},
	{
		name:     "cluster",
		patients: 48, histSeconds: 300, clients: 2, http: true, shards: 3, hotSet: true,
		queries: 128, predicts: 28, ingests: 128,
		refRounds: 52,
	},
}

// smoke shrinks a workload to one quick round on a reduced corpus, for
// tests: the same code paths, no meaningful numbers.
func (s workloadSpec) smoke() workloadSpec {
	s.patients = min(s.patients, 12)
	s.histSeconds = min(s.histSeconds, 120)
	s.queries, s.predicts, s.ingests = 24, 8, 8
	s.refRounds = 1
	return s
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
