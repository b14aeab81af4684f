package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call it
// made into a layer. Spans of one operation share Op; Parent is 0 for
// the operation's root span. Times are microseconds.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer was made
	Dur    float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
	cur   map[int]int // client -> index in spans of its open root span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: make(map[int]int)}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// beginOp opens the root span of client c's next operation.
func (t *tracer) beginOp(c int, name string, start time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: t.ops, Name: name, Start: t.us(start)})
	t.cur[c] = len(t.spans) - 1
}

// endOp closes client c's open root span.
func (t *tracer) endOp(c int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.cur[c]].Dur = float64(d.Nanoseconds()) / 1e3
}

// child records a finished call made on behalf of client c's open
// operation.
func (t *tracer) child(c int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.spans[t.cur[c]]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: root.ID, Op: root.Op, Name: name,
		Start: t.us(start), Dur: float64(d.Nanoseconds()) / 1e3})
}

// selfTimes maps each span's ID to its self time: its duration minus
// the part of its interval that its child spans cover (overlapping
// children are not counted twice, and a child is clipped to its
// parent).
func selfTimes(spans []span) map[int]float64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for id, s := range byID {
		ks := kids[id]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := 0.0, s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.Start+k.Dur, s.Start+s.Dur)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = s.Dur - covered
	}
	return self
}

// selfByName sums self time per span name and counts the spans.
func selfByName(spans []span) (total map[string]float64, count map[string]int) {
	self := selfTimes(spans)
	total, count = make(map[string]float64), make(map[string]int)
	for _, s := range spans {
		total[s.Name] += self[s.ID]
		count[s.Name]++
	}
	return total, count
}

// traceFile is what the traced run leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfUS   map[string]float64 `json:"self_us_by_name"`
	Count    map[string]int     `json:"spans_by_name"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span, layers []metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans, Layers: make(map[string]float64, len(layers))}
	tf.SelfUS, tf.Count = selfByName(spans)
	for _, m := range layers {
		tf.Layers[m.name] = m.value
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
