package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(10)
	g.Dec()
	g.Dec()
	g.Inc()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "h")
	b := r.Counter("same_total", "h")
	if a != b {
		t.Fatal("re-registering a counter must return the same instance")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counters out of sync")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	// le="0.01" is inclusive: 0.005 and 0.01 land there.
	for _, want := range []string{
		`test_lat_seconds_bucket{le="0.01"} 2`,
		`test_lat_seconds_bucket{le="0.1"} 3`,
		`test_lat_seconds_bucket{le="1"} 4`,
		`test_lat_seconds_bucket{le="+Inf"} 5`,
		`test_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "requests", "route", "code")
	v.With("predict", "2xx").Add(3)
	v.With("predict", "5xx").Inc()
	v.With("stats", "2xx").Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_req_total counter",
		`test_req_total{route="predict",code="2xx"} 3`,
		`test_req_total{route="predict",code="5xx"} 1`,
		`test_req_total{route="stats",code="2xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("test_live", "live value", func() float64 { return n + 1 })
	pts := r.Gather()
	found := false
	for _, p := range pts {
		if p.Name == "test_live" {
			found = true
			if p.Value != 42 {
				t.Fatalf("gauge func = %v, want 42", p.Value)
			}
		}
	}
	if !found {
		t.Fatal("gauge func missing from Gather")
	}
}

func TestGatherHistogramFlattens(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h_seconds", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	got := map[string]float64{}
	for _, p := range r.Gather() {
		got[p.Name] = p.Value
	}
	if got["test_h_seconds_count"] != 2 {
		t.Fatalf("count point = %v, want 2", got["test_h_seconds_count"])
	}
	if got["test_h_seconds_sum"] != 2.5 {
		t.Fatalf("sum point = %v, want 2.5", got["test_h_seconds_sum"])
	}
}

// TestConcurrentScrape exercises the registry under -race: writers
// hammer counters/histograms/vec children while readers render the
// exposition, and every rendered histogram's _count equals its +Inf
// bucket, as the text format requires.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "race")
	h := r.Histogram("race_seconds", "race", DefLatencyBuckets)
	v := r.CounterVec("race_vec_total", "race", "k")
	var (
		writers, readers sync.WaitGroup
		stop             = make(chan struct{})
		observed         atomic.Uint64
	)
	// Writers run until the readers are done (and at least 500 rounds
	// each), so every scrape overlaps an Observe.
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			for j := 0; ; j++ {
				if j >= 500 {
					select {
					case <-stop:
						observed.Add(uint64(j))
						return
					default:
					}
				}
				c.Inc()
				h.Observe(float64(j%1000) / 1000)
				v.With(string(rune('a' + id))).Inc()
			}
		}(i)
	}
	var mismatched atomic.Int64
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 100; j++ {
				var buf bytes.Buffer
				r.WritePrometheus(&buf)
				r.Gather()
				var inf, count string
				for _, line := range strings.Split(buf.String(), "\n") {
					if v, ok := strings.CutPrefix(line, `race_seconds_bucket{le="+Inf"} `); ok {
						inf = v
					} else if v, ok := strings.CutPrefix(line, "race_seconds_count "); ok {
						count = v
					}
				}
				if inf == "" || count != inf {
					mismatched.Add(1)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if n := mismatched.Load(); n != 0 {
		t.Errorf("%d of 200 scrapes rendered race_seconds_count unequal to its +Inf bucket", n)
	}
	want := observed.Load()
	if c.Value() != want {
		t.Fatalf("counter = %d, want %d", c.Value(), want)
	}
	if h.Count() != want {
		t.Fatalf("histogram count = %d, want %d", h.Count(), want)
	}
}
