// Package testutil provides deterministic infrastructure for
// integration-testing the sharded deployment: a fault-injecting
// http.RoundTripper whose behavior is scripted per request index (or
// seeded pseudo-randomly, so chaos runs reproduce exactly), an
// in-process cluster harness that boots N streamd backends behind a
// replication-aware gateway, each a name that an in-memory Carrier
// delivers to, and small JSON helpers shared by the integration tests.
//
// Everything here is test-only plumbing; nothing imports it outside
// _test files. Importing it puts a Carrier in front of
// http.DefaultTransport, so a plain http.Get reaches a cluster's names.
package testutil

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Fault is one scripted behavior for a single HTTP request.
type Fault int

const (
	// FaultNone delivers the request untouched.
	FaultNone Fault = iota
	// FaultDrop fails the request with a transport error without
	// delivering it, like a connection reset before the request was
	// written. The caller cannot tell whether the server saw it.
	FaultDrop
	// FaultDelay sleeps for the transport's Delay before delivering.
	FaultDelay
	// Fault500 synthesizes a 500 response without delivering the
	// request, like an intermediary failing the call.
	Fault500
	// FaultPartialBody delivers the request but truncates the response
	// body halfway and fails the remainder with io.ErrUnexpectedEOF.
	FaultPartialBody
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case Fault500:
		return "500"
	case FaultPartialBody:
		return "partial-body"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// FaultTransport is an http.RoundTripper that injects scripted faults
// by request index: request 0 gets the script's first fault, request 1
// the second, and so on. Indices beyond the script fall back to the
// seeded pseudo-random plan when one is configured (deterministic per
// seed) and to FaultNone otherwise. Safe for concurrent use; note that
// under concurrency the index a request draws depends on arrival
// order, so deterministic scripts pair best with sequential callers.
type FaultTransport struct {
	// Inner performs the real round trips (nil = a Carrier: a cluster's
	// names in memory, any other host over the frame carrier).
	Inner http.RoundTripper
	// Delay is the sleep applied by FaultDelay (0 = 5ms).
	Delay time.Duration

	carrier Carrier // when Inner is nil
	mu      sync.Mutex
	n       int
	script  map[int]Fault
	only    func(*http.Request) bool
	rng     *rand.Rand
	prob    float64
	menu    []Fault
}

// NewFaultTransport returns a transport that passes everything through
// until faults are scripted or seeded.
func NewFaultTransport() *FaultTransport {
	return &FaultTransport{script: make(map[int]Fault)}
}

// Script sets the faults for request indices 0..len(seq)-1, replacing
// any previous script. Returns the transport for chaining.
func (ft *FaultTransport) Script(seq ...Fault) *FaultTransport {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.script = make(map[int]Fault, len(seq))
	for i, f := range seq {
		ft.script[i] = f
	}
	return ft
}

// SeedRandom arms a deterministic pseudo-random fault plan for every
// request index not covered by the script: with probability prob the
// request draws one of the menu faults. The same seed always yields
// the same fault sequence.
func (ft *FaultTransport) SeedRandom(seed int64, prob float64, menu ...Fault) *FaultTransport {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.rng = rand.New(rand.NewSource(seed))
	ft.prob = prob
	ft.menu = menu
	return ft
}

// DropWhile drops every request for which active reports true and
// passes everything else through untouched — a kill switch a test can
// flip from a migration-phase hook so a node's outbound traffic dies
// at an exact protocol point.
func (ft *FaultTransport) DropWhile(active func() bool) *FaultTransport {
	return ft.Only(func(*http.Request) bool { return active() }).
		SeedRandom(1, 1.0, FaultDrop)
}

// Only restricts fault injection (and index counting) to requests the
// predicate matches; everything else passes straight through.
func (ft *FaultTransport) Only(match func(*http.Request) bool) *FaultTransport {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.only = match
	return ft
}

// Requests returns how many matching requests the transport has seen.
func (ft *FaultTransport) Requests() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.n
}

func (ft *FaultTransport) inner() http.RoundTripper {
	if ft.Inner != nil {
		return ft.Inner
	}
	return &ft.carrier
}

// RoundTrip implements http.RoundTripper.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	if ft.only != nil && !ft.only(req) {
		ft.mu.Unlock()
		return ft.inner().RoundTrip(req)
	}
	idx := ft.n
	ft.n++
	f, scripted := ft.script[idx]
	if !scripted && ft.rng != nil && len(ft.menu) > 0 && ft.rng.Float64() < ft.prob {
		f = ft.menu[ft.rng.Intn(len(ft.menu))]
	}
	delay := ft.Delay
	ft.mu.Unlock()

	switch f {
	case FaultDrop:
		if req.Body != nil {
			req.Body.Close() //nolint:errcheck
		}
		return nil, fmt.Errorf("testutil: injected drop (request %d)", idx)
	case Fault500:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body) //nolint:errcheck
			req.Body.Close()              //nolint:errcheck
		}
		return &http.Response{
			Status:     "500 Internal Server Error",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"testutil: injected 500"}`)),
			Request: req,
		}, nil
	case FaultDelay:
		if delay <= 0 {
			delay = 5 * time.Millisecond
		}
		time.Sleep(delay)
	}
	resp, err := ft.inner().RoundTrip(req)
	if err != nil || f != FaultPartialBody {
		return resp, err
	}
	full, rerr := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(full[:len(full)/2]), errReader{}))
	// Keep the original announced length: readers that trust it see a
	// short body, readers that drain see an unexpected EOF.
	resp.ContentLength = int64(len(full))
	return resp, nil
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
