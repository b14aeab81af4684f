// Command bench is the repository's benchmark: four workloads over the
// same three operations (similarity query, position prediction, sample
// ingest), each measured over many identical rounds that start from a
// cold build (every op's latency is the fastest of its replays),
// checked against oracles, and reported by metric name and unit. See
// README.md in this directory for the protocol, the metric tables and
// how to read the output.
//
//	bench                                   all four workloads, end-to-end metrics
//	bench -workload online -seed 7          one workload
//	bench -workload cluster -trace 1        the traced run: per-layer metrics
//	bench -repeat 10                        calibration: spread of every metric over 10 seeds
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stsmatch/internal/obs"
)

// result is the contract's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	smoke    bool
	tmp      string // where the servers' data dirs are made
	out      string // where trace files go
	spec     string // BENCHMARK.json, for the bounds -repeat checks against
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, metrics prefixed <workload>/)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the load generator: cohort, query windows, op order")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "nominal length of the measured phase; scales the number of fixed-work rounds")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	flag.IntVar(&o.repeat, "repeat", 0, "calibration: run N sets with seeds seed..seed+N-1 and report every metric's spread against its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "one short round per workload on a reduced corpus (for tests)")
	// The defaults are for a run from the root of a checkout, and keep
	// everything the benchmark writes inside it.
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "directory for the servers' data dirs")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for the traced run's trace files")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "BENCHMARK.json, for the bounds -repeat checks against")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// commit is the revision the binary was built from; run.sh sets it
// when the checkout is a git repository.
var commit = "unknown"

func run(o options, w io.Writer) error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("needs at least 2 CPUs, have %d: the cluster workload runs 2 clients against 4 servers", runtime.NumCPU())
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.repeat < 0 {
		return fmt.Errorf("bad flags: -seconds %d -trace %d -repeat %d", o.seconds, o.trace, o.repeat)
	}
	// Every program logger goes to io.Discard: access logs would
	// otherwise be most of what the servers do.
	obs.InitLogging(io.Discard, slog.LevelError, false)

	specs := workloads
	if o.workload != "" {
		spec, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		specs = []workloadSpec{spec}
	}
	fmt.Fprintf(w, "# stsmatch bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.seconds, o.trace)
	if o.repeat > 0 {
		return calibrate(o, specs, w)
	}
	res, err := runSet(o, specs, w)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runSet runs each workload once and gathers the result. Metric names
// carry a <workload>/ prefix only when several workloads share it.
func runSet(o options, specs []workloadSpec, w io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metricValue)}
	for _, spec := range specs {
		if o.smoke {
			spec = spec.smoke()
		}
		in, err := genInputs(spec, o.seed)
		if err != nil {
			return res, fmt.Errorf("%s: generating inputs: %w", spec.name, err)
		}
		in.tmp = o.tmp
		run := runUntraced
		if o.trace == 1 {
			run = runTraced
		}
		ms, t, err := run(in, o, w)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(w, "# %s: attempted %d, failed %d\n", spec.name, t.attempted, t.failed)
		if t.first != nil {
			fmt.Fprintf(w, "# %s: first failure: %v\n", spec.name, t.first)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		for _, m := range ms {
			name := m.name
			if len(specs) > 1 {
				name = spec.name + "/" + name
			}
			fmt.Fprintf(w, "%-44s %14.4f %-6s %s\n", spec.name+"/"+m.name, m.value, m.unit, m.note)
			res.Metrics[name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runUntraced is the end-to-end run: as many identical rounds as the
// nominal length calls for, tracing off.
func runUntraced(in *inputs, o options, w io.Writer) ([]metric, tally, error) {
	n := in.spec.rounds(o.seconds)
	rounds := make([]roundResult, 0, n)
	var t tally
	// The rounds are fixed work and fill -seconds on the reference box.
	// A box so much slower that they would take half as long again
	// stops early, with fewer replays of every op, rather than overrun
	// the time a caller has planned for.
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second * 3 / 2)
	for i := 0; i < n && (i < minRounds || time.Now().Before(deadline)); i++ {
		r, err := runRound(in, i, nil)
		if err != nil {
			return nil, t, err
		}
		t.add(r.tally)
		rounds = append(rounds, r)
	}
	fmt.Fprintf(w, "# %s: %d rounds x %d ops, %d vertices after set-up, inputs %016x\n",
		in.spec.name, len(rounds), in.spec.opsPerRound(), rounds[0].vertices, in.hash())
	return endToEnd(in, rounds), t, nil
}
