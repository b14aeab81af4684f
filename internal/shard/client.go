package shard

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stsmatch/internal/frame"
	"stsmatch/internal/obs"
)

// Options tunes the gateway's backend clients. The zero value selects
// production-shaped defaults.
type Options struct {
	// Vnodes is the number of virtual nodes per backend on the
	// consistent-hash ring (0 = DefaultVnodes).
	Vnodes int

	// Replicas is the replication factor R: each session lives on a
	// primary plus R-1 successor replicas on the ring, and the gateway
	// fails sessions over to a replica when the primary is ejected.
	// 0 and 1 both mean unreplicated.
	Replicas int

	// Timeout bounds each individual backend request attempt
	// (0 = 5s).
	Timeout time.Duration

	// MaxRetries is the number of retry attempts (beyond the first)
	// for idempotent calls that fail with a transport error or a
	// retryable status (negative = 0, zero = default 2).
	MaxRetries int

	// BackoffBase and BackoffMax bound the exponential backoff between
	// retries; each sleep is jittered to 50-100% of the nominal value
	// (0 = 25ms base, 1s max).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// HealthInterval is the active health-probe period (0 = 2s,
	// negative = disable active checking).
	HealthInterval time.Duration

	// FailThreshold is the number of consecutive failures (probes or
	// requests) after which a backend is ejected (0 = 3).
	FailThreshold int

	// ReadmitThreshold is the number of consecutive successes an
	// ejected backend must accumulate before it is readmitted (0 = 2).
	// Values above 1 damp flapping: a backend that answers one probe
	// between crashes stays ejected.
	ReadmitThreshold int

	// Transport overrides the transport of every backend call (tests
	// inject deterministic fault-injecting transports here). Nil selects
	// the frame carrier (internal/frame), which Close closes.
	Transport http.RoundTripper

	// TraceCapacity bounds the gateway's in-memory trace collector
	// rings (0 = obs.DefaultTraceCapacity).
	TraceCapacity int

	// TraceSlowThreshold is the latency at or above which a gateway
	// trace is pinned in the slow ring (0 = obs.DefaultSlowThreshold).
	TraceSlowThreshold time.Duration

	// RebalanceConcurrency bounds how many session migrations a
	// rebalance drains concurrently (0 = DefaultRebalanceConcurrency).
	RebalanceConcurrency int

	// MigrateTimeout bounds one POST /v1/sessions/{sid}/migrate call —
	// a migration ships a session's full state, so it gets its own
	// budget instead of the per-request Timeout (0 =
	// DefaultMigrateTimeout).
	MigrateTimeout time.Duration

	// Deprecated: ignored. The gateway tracks no per-patient freshness
	// any more: every match is the exact lag-0 scatter.
	FreshnessInterval time.Duration
}

// DefaultRebalanceConcurrency bounds in-flight migrations during a
// rebalance drain when Options.RebalanceConcurrency is zero.
const DefaultRebalanceConcurrency = 2

// DefaultMigrateTimeout bounds one migrate call when
// Options.MigrateTimeout is zero.
const DefaultMigrateTimeout = 60 * time.Second

func (o Options) withDefaults() Options {
	if o.Vnodes <= 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.ReadmitThreshold <= 0 {
		o.ReadmitThreshold = 2
	}
	if o.RebalanceConcurrency <= 0 {
		o.RebalanceConcurrency = DefaultRebalanceConcurrency
	}
	if o.MigrateTimeout <= 0 {
		o.MigrateTimeout = DefaultMigrateTimeout
	}
	return o
}

// errResponseTooLarge is a backend reply over frame.MaxReplyBytes (a
// full-stream PLR response can be large, but not this large), refused
// unread. The backend did answer, so it is not a health failure, and an
// identical retry would only fetch the same bytes.
var errResponseTooLarge = frame.ErrTooLarge

// Backend is one streamd instance as seen by the gateway: a base URL
// and the health state maintained by active probes and passive request
// outcomes.
type Backend struct {
	url       string
	healthy   atomic.Bool
	fails     atomic.Int64
	successes atomic.Int64 // consecutive successes while ejected
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.url }

// Healthy reports whether the backend is currently admitted.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Pool manages the set of backends: per-backend pooled clients,
// bounded retries with jittered exponential backoff on idempotent
// calls, and an active health checker that ejects backends after
// FailThreshold consecutive failures and readmits them only after
// ReadmitThreshold consecutive successes (flap damping).
type Pool struct {
	// mu guards backends/byURL: the set was append-only at construction
	// until elastic rebalancing made AddBackend a runtime operation.
	mu       sync.RWMutex
	backends []*Backend
	byURL    map[string]*Backend
	opts     Options
	met      *shardMetrics
	log      *slog.Logger

	rt http.RoundTripper // Options.Transport, else the frame carrier

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewPool builds a pool over the given backend base URLs (e.g.
// "http://10.0.0.1:8750"). Backends start healthy; the active checker
// runs until Close.
func NewPool(urls []string, opts Options) (*Pool, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("shard: pool needs at least one backend")
	}
	opts = opts.withDefaults()
	p := &Pool{
		byURL: make(map[string]*Backend, len(urls)),
		opts:  opts,
		met:   newShardMetrics(obs.Default()),
		log:   obs.Logger("shard"),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		rt:    cmp.Or[http.RoundTripper](opts.Transport, &frame.Transport{}),
	}
	for _, u := range urls {
		if u == "" {
			return nil, fmt.Errorf("shard: empty backend URL")
		}
		if _, dup := p.byURL[u]; dup {
			return nil, fmt.Errorf("shard: duplicate backend URL %s", u)
		}
		p.addLocked(u)
	}
	if opts.HealthInterval > 0 {
		go p.healthLoop()
	} else {
		close(p.done)
	}
	return p, nil
}

// Close stops the active health checker and closes every framed
// connection the pool dialed.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	if t, ok := p.rt.(*frame.Transport); ok {
		t.Close()
	}
}

// addLocked builds and registers one backend. Callers hold p.mu (or
// own the pool exclusively, as NewPool does).
func (p *Pool) addLocked(u string) *Backend {
	b := &Backend{url: u}
	b.healthy.Store(true)
	p.met.healthy.With(u).Set(1)
	p.backends = append(p.backends, b)
	p.byURL[u] = b
	return b
}

// AddBackend registers a new backend at runtime (elastic growth). It
// is idempotent: adding a URL already in the pool returns the existing
// backend, so a crash-recovered rebalance can re-drive the add.
func (p *Pool) AddBackend(url string) (*Backend, error) {
	if url == "" {
		return nil, fmt.Errorf("shard: empty backend URL")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.byURL[url]; ok {
		return b, nil
	}
	p.log.Info("backend added", slog.String("backend", url))
	return p.addLocked(url), nil
}

// Backends returns a snapshot of every backend, healthy or not, in
// registration order.
func (p *Pool) Backends() []*Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*Backend(nil), p.backends...)
}

// ByURL returns the backend with the given base URL, or nil.
func (p *Pool) ByURL(url string) *Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.byURL[url]
}

// NumHealthy returns the number of currently admitted backends.
func (p *Pool) NumHealthy() int {
	n := 0
	for _, b := range p.Backends() {
		if b.Healthy() {
			n++
		}
	}
	return n
}

// retryableStatus reports whether a response status indicates a
// transient backend-side condition worth retrying.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// backoff returns the jittered sleep before retry attempt n (n >= 1):
// base·2^(n-1) capped at max, scaled to 50-100% so synchronized
// retries from concurrent requests spread out.
func (p *Pool) backoff(n int) time.Duration {
	d := p.opts.BackoffBase << uint(n-1)
	if d > p.opts.BackoffMax || d <= 0 {
		d = p.opts.BackoffMax
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rand.Float64()))
}

// do performs one logical request against a backend, its body (if
// any) sent as ctype. Idempotent calls are retried up to MaxRetries
// times on transport errors and retryable statuses; non-idempotent
// calls get exactly one attempt. The returned status, body and headers
// are the backend's response verbatim; a non-nil error means no usable
// response was obtained. A response over frame.MaxReplyBytes is such an
// error after one attempt, and it does not count against the backend's
// health.
func (p *Pool) do(ctx context.Context, b *Backend, method, path, ctype string, body []byte, idempotent bool) (int, []byte, http.Header, error) {
	attempts := 1
	if idempotent {
		attempts += p.opts.MaxRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			p.met.retries.With(b.url).Inc()
			select {
			case <-time.After(p.backoff(attempt)):
			case <-ctx.Done():
				return 0, nil, nil, ctx.Err()
			}
		}
		// Each attempt gets its own span (annotated retry=true past the
		// first), so a traced scatter leg shows whether its latency was
		// one slow call or a retry ladder.
		actx, sp := obs.StartSpan(ctx, "backend.request")
		sp.Annotate("backend", b.url)
		sp.Annotate("path", path)
		if attempt > 0 {
			sp.Annotate("retry", true)
			sp.Annotate("attempt", attempt+1)
		}
		status, respBody, respHdr, err := p.once(actx, b, method, path, ctype, body, p.opts.Timeout)
		if err != nil {
			sp.Annotate("error", err.Error())
			sp.Finish()
			lastErr = fmt.Errorf("backend %s: %w", b.url, err)
			p.met.requests.With(b.url, "error").Inc()
			if errors.Is(err, errResponseTooLarge) {
				return 0, nil, nil, lastErr
			}
			p.recordFailure(b)
			if ctx.Err() != nil {
				return 0, nil, nil, lastErr
			}
			continue
		}
		sp.Annotate("status", status)
		sp.Finish()
		// Any well-formed response means the backend is alive, even a
		// 4xx/5xx: ejection is about reachability, not application
		// errors.
		p.recordSuccess(b)
		if retryableStatus(status) && attempt+1 < attempts {
			lastErr = fmt.Errorf("backend %s: status %d", b.url, status)
			p.met.requests.With(b.url, "error").Inc()
			continue
		}
		p.met.requests.With(b.url, "ok").Inc()
		return status, respBody, respHdr, nil
	}
	return 0, nil, nil, lastErr
}

// once performs a single attempt under the given timeout.
func (p *Pool) once(ctx context.Context, b *Backend, method, path, ctype string, body []byte, timeout time.Duration) (int, []byte, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, method, b.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	// Propagate the trace context and request ID to the backend, so one
	// logical request joins up across gateway and shard logs/traces.
	obs.InjectHeaders(rctx, req.Header)
	start := time.Now()
	resp, err := p.rt.RoundTrip(req)
	p.met.latency.With(b.url).Observe(time.Since(start).Seconds())
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, respBody, resp.Header, nil
}

// recordFailure counts one failure; crossing the threshold ejects the
// backend. Any failure also resets the readmission streak, so a
// flapping backend cannot re-enter rotation between crashes.
func (p *Pool) recordFailure(b *Backend) {
	b.successes.Store(0)
	if b.fails.Add(1) >= int64(p.opts.FailThreshold) && b.healthy.CompareAndSwap(true, false) {
		p.met.healthy.With(b.url).Set(0)
		p.log.Warn("backend ejected", slog.String("backend", b.url))
	}
}

// recordSuccess resets the failure streak; an ejected backend is
// readmitted only after ReadmitThreshold consecutive successes.
func (p *Pool) recordSuccess(b *Backend) {
	b.fails.Store(0)
	if b.healthy.Load() {
		return
	}
	if b.successes.Add(1) >= int64(p.opts.ReadmitThreshold) && b.healthy.CompareAndSwap(false, true) {
		b.successes.Store(0)
		p.met.healthy.With(b.url).Set(1)
		p.log.Info("backend readmitted", slog.String("backend", b.url))
	}
}

// healthLoop actively probes every backend's /v1/healthz. Probes run
// for ejected backends too: a successful probe is the readmission
// path.
func (p *Pool) healthLoop() {
	defer close(p.done)
	t := time.NewTicker(p.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.ProbeAll()
		}
	}
}

// ProbeAll health-checks every backend once, concurrently, and
// returns when all probes finish. The background checker calls this
// on every tick; tests call it directly for deterministic
// ejection/readmission.
func (p *Pool) ProbeAll() {
	var wg sync.WaitGroup
	for _, b := range p.Backends() {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			status, _, _, err := p.once(context.Background(), b, http.MethodGet, "/v1/healthz", "", nil, p.opts.Timeout)
			if err != nil || status != http.StatusOK {
				p.recordFailure(b)
				return
			}
			p.recordSuccess(b)
		}(b)
	}
	wg.Wait()
}
