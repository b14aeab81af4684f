package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// roundResult is what one round measured.
type roundResult struct {
	cold    bool // a full cold build: setupS and heapMB are samples
	setupS  float64
	heapMB  float64
	allocKB float64 // per op
	opsPerS float64
	// lat[c][i] is the latency in microseconds of op i of client c, NaN
	// if it failed. Rounds are identical replays, so the same indices
	// of different rounds timed the same computation.
	lat [][]float64
	// end[c][i] is when that op's turn ended, in microseconds since the
	// client's loop began: latency plus the client's own bookkeeping.
	end      [][]float64
	vertices int
	tally    // every op (warm-up included) and every oracle check
}

// settledHeap is HeapAlloc after two collections: the second one
// frees what finalizers and the first sweep released.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runClients runs each client's op list in its own closed loop and
// returns the per-op latencies in microseconds (NaN for a failed op),
// the errors, and the wall time from the first op's start to the last
// op's end. A single client runs on the calling goroutine.
func runClients(dep deployment, lists [][]op, tr *tracer) (lat, end [][]float64, errs []error, wall time.Duration) {
	lat = make([][]float64, len(lists))
	end = make([][]float64, len(lists))
	cerrs := make([][]error, len(lists))
	loop := func(c int) {
		lat[c] = make([]float64, len(lists[c]))
		end[c] = make([]float64, len(lists[c]))
		begin := time.Now()
		for i, o := range lists[c] {
			start := time.Now()
			if tr != nil {
				tr.beginOp(c, opSpanNames[o.kind], start)
			}
			d, err := dep.run(c, o)
			if tr != nil {
				tr.endOp(c, time.Since(start))
			}
			lat[c][i] = float64(d.Nanoseconds()) / 1e3
			if err != nil {
				lat[c][i] = math.NaN()
				cerrs[c] = append(cerrs[c], fmt.Errorf("client %d op %d (%s): %w", c, i, kindNames[o.kind], err))
			}
			end[c][i] = float64(time.Since(begin).Nanoseconds()) / 1e3
		}
	}
	t0 := time.Now()
	if len(lists) == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := range lists {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				loop(c)
			}(c)
		}
		wg.Wait()
	}
	wall = time.Since(t0)
	for _, e := range cerrs {
		errs = append(errs, e...)
	}
	return lat, end, errs, wall
}

var opSpanNames = [numKinds]string{"op.query", "op.predict", "op.ingest"}

func countOps(lists [][]op) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// runRound is the protocol's unit: build (cold: timed, one set-up
// sample, heap by difference; or restored from the last cold build's
// segmentation), discarded warm-up, the fixed op list, the quiescent
// oracle, teardown. A build error aborts the run; op errors are
// counted.
func runRound(in *inputs, i int, tr *tracer) (roundResult, error) {
	r := roundResult{cold: in.spec.cold(i)}
	in.restore = !r.cold
	base := settledHeap()
	t0 := time.Now()
	dep, err := in.spec.build(in)
	r.setupS = time.Since(t0).Seconds()
	if err != nil {
		return r, fmt.Errorf("%s: set-up: %w", in.spec.name, err)
	}
	defer func() {
		if cerr := dep.close(); cerr != nil {
			r.fail(cerr)
		}
	}()
	r.heapMB = float64(int64(settledHeap())-int64(base)) / (1 << 20)
	r.vertices = dep.vertices()

	note := func(errs []error) {
		for _, err := range errs {
			r.fail(err)
		}
	}
	_, _, errs, _ := runClients(dep, in.warmOps, nil)
	r.attempted += countOps(in.warmOps)
	note(errs)
	if tr != nil {
		dep.traceTo(tr)
	}

	runtime.GC()
	runtime.GC()
	a0 := totalAlloc()
	lat, end, errs, wall := runClients(dep, in.ops, tr)
	a1 := totalAlloc()
	n := countOps(in.ops)
	r.attempted += n
	note(errs)
	r.allocKB = float64(a1-a0) / 1024 / float64(n)
	r.opsPerS = float64(n) / wall.Seconds()
	r.lat, r.end = lat, end

	if in.spec.verifies(i) {
		r.add(dep.verify())
	}
	return r, nil
}

// bestLatencies folds the rounds' per-op latencies into one value per
// op: the fastest of its replays. Interference from outside the
// process only ever slows an op, so the minimum over identical replays
// is the estimate of its undisturbed latency that repeats from run to
// run; see README.md, "Why best-of-rounds". The result is grouped by
// op kind, ascending.
func bestLatencies(in *inputs, rounds []roundResult) (best [numKinds][]float64) {
	for c, list := range in.ops {
		for i, o := range list {
			m := math.NaN()
			for _, r := range rounds {
				if v := r.lat[c][i]; !math.IsNaN(v) && !(v >= m) { // m starts NaN
					m = v
				}
			}
			if !math.IsNaN(m) {
				best[o.kind] = append(best[o.kind], m)
			}
		}
	}
	for k := range best {
		best[k] = sorted(best[k])
	}
	return best
}

// roundColumn is one end-to-end metric's per-round values: what the
// metric would have been had each round been reported on its own.
type roundColumn struct {
	name, unit string
	xs         []float64
}

// roundColumns lists the per-round values of every end-to-end metric,
// in the order the metrics are reported. Set-up and heap are sampled
// by cold rounds only; a latency quantile is taken over the round's
// ops of that kind.
func roundColumns(in *inputs, rounds []roundResult) []roundColumn {
	col := func(only func(roundResult) bool, f func(roundResult) float64) []float64 {
		var xs []float64
		for _, r := range rounds {
			if only(r) {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	cold := func(r roundResult) bool { return r.cold }
	all := func(roundResult) bool { return true }
	cols := []roundColumn{
		{"setup_s", "s", col(cold, func(r roundResult) float64 { return r.setupS })},
		{"heap_mb", "MB", col(cold, func(r roundResult) float64 { return r.heapMB })},
		{"alloc_kb_per_op", "KB", col(all, func(r roundResult) float64 { return r.allocKB })},
		{"ops_per_s", "1/s", col(all, func(r roundResult) float64 { return r.opsPerS })},
	}
	for _, lm := range latencyMetrics {
		cols = append(cols, roundColumn{lm.name(), "us", col(all, func(r roundResult) float64 {
			var lat []float64
			for c, list := range in.ops {
				for i, o := range list {
					if v := r.lat[c][i]; o.kind == lm.kind && !math.IsNaN(v) {
						lat = append(lat, v)
					}
				}
			}
			return percentile(sorted(lat), lm.p)
		})})
	}
	return cols
}

// endToEnd reduces the rounds to the end-to-end metrics. Counted costs
// (heap, bytes allocated) repeat exactly and are reported as the
// median round; timed ones are reported from the best replay: the
// fastest build, per-op best latencies, and the closed-loop rate of
// the best stretches. What the rounds looked like one by one is noted
// beside each value.
func endToEnd(in *inputs, rounds []roundResult) []metric {
	best := bestLatencies(in, rounds)
	value := map[string]func(xs []float64) float64{
		"setup_s":         slices.Min[[]float64],
		"heap_mb":         median,
		"alloc_kb_per_op": median,
		"ops_per_s":       func([]float64) float64 { return stretchRate(in, rounds) },
	}
	for _, lm := range latencyMetrics {
		value[lm.name()] = func([]float64) float64 { return percentile(best[lm.kind], lm.p) }
	}
	var out []metric
	for _, c := range roundColumns(in, rounds) {
		out = append(out, metric{name: c.name, value: value[c.name](c.xs), unit: c.unit,
			note: fmt.Sprintf("per round: median=%.4g iqr=%.1f%% n=%d", median(c.xs), 100*iqrShare(c.xs), len(c.xs))})
	}
	return out
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // diagnostics printed beside it, not part of the result
}

// latencyMetric is one reported latency quantile.
type latencyMetric struct {
	kind   opKind
	suffix string
	p      float64
}

func (lm latencyMetric) name() string { return kindNames[lm.kind] + "_" + lm.suffix }

var latencyMetrics = []latencyMetric{
	{opQuery, "p50_us", 0.50}, {opQuery, "p95_us", 0.95},
	{opPredict, "p50_us", 0.50}, {opPredict, "p95_us", 0.95},
	{opIngest, "p50_us", 0.50},
}

// stretch is how many consecutive ops of a client's loop are timed
// together for ops_per_s: long enough (several milliseconds on the
// served workloads) that what the clients cost each other stays in the
// number, short enough that some replay of it ran undisturbed.
const stretch = 16

// stretchRate is the closed-loop throughput. Each client's loop is cut
// into stretches; a stretch takes as long as its fastest replay (op
// latencies plus the client's own bookkeeping between them); a
// client's loop takes the sum of its stretches; the clients run side
// by side and the round ends with the slower one.
func stretchRate(in *inputs, rounds []roundResult) float64 {
	var slowest float64
	n := 0
	for c, list := range in.ops {
		var sum float64
		for lo := 0; lo < len(list); lo += stretch {
			hi := min(lo+stretch, len(list))
			best := math.Inf(1)
			for _, r := range rounds {
				d := r.end[c][hi-1]
				if lo > 0 {
					d -= r.end[c][lo-1]
				}
				best = math.Min(best, d)
			}
			sum += best
		}
		n += len(list)
		slowest = math.Max(slowest, sum)
	}
	return float64(n) / (slowest / 1e6)
}
