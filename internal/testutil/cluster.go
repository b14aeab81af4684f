package testutil

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
)

// Node is one in-process streamd backend in a test cluster.
type Node struct {
	URL    string
	Server *server.Server
	srv    atomic.Pointer[server.Server] // Server, as the listener reads it
	opts   server.Options
	ts     *httptest.Server
	killed atomic.Bool // listener closed or partitioned off
	dead   atomic.Bool // inbound requests aborted without a response

	mu       sync.Mutex
	frames   []net.Conn // connections the frame carrier took over
	requests int        // HTTP requests read, upgrades included
}

// Requests counts the HTTP requests the node has served other than
// upgrades to the frame carrier, and the upgrades.
func (n *Node) Requests() (plain, upgrades int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.requests - len(n.frames), len(n.frames)
}

// Killed reports whether the node has been killed or partitioned off.
func (n *Node) Killed() bool { return n.killed.Load() }

// PartitionOff makes the node unreachable to every subsequent inbound
// request (connections are aborted without a response, like a machine
// dropping off the network) while leaving the listener open. Unlike
// Kill it is safe to call from inside one of the node's own request
// handlers — e.g. a migration-phase hook — where closing the listener
// would deadlock waiting for the very handler that called it.
func (n *Node) PartitionOff() {
	n.killed.Store(true)
	n.dead.Store(true)
}

// Cluster is an in-process sharded deployment: N streamd backends on
// loopback listeners behind a replication-aware gateway. Health
// probing is disabled so tests drive ejection deterministically via
// Probe; the gateway ejects after a single failed probe and readmits
// after two consecutive successes.
type Cluster struct {
	Gateway *shard.Gateway
	URL     string // gateway base URL
	Nodes   []*Node

	t  testing.TB
	ts *httptest.Server
}

// ClusterConfig customizes StartCluster beyond the (n, replicas)
// shape. Zero-value fields keep the deterministic test defaults.
type ClusterConfig struct {
	// Gateway overrides gateway options field-by-field: any non-zero
	// field replaces the test default.
	Gateway shard.Options
	// ConfigureServer, when set, mutates each backend's server options
	// before construction (e.g. to set a DataDir or inject a
	// ReplicateTransport).
	ConfigureServer func(i int, o *server.Options)
}

// StartCluster boots n streamd backends behind a gateway with the
// given replication factor and registers cleanup on t. Backends
// advertise their own loopback URL, so WAL shipments between them
// carry real source identities.
func StartCluster(t testing.TB, n, replicas int, conf ...func(*ClusterConfig)) *Cluster {
	t.Helper()
	var cfg ClusterConfig
	for _, fn := range conf {
		fn(&cfg)
	}
	c := &Cluster{t: t}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		node := c.AddNode(func(o *server.Options) {
			if cfg.ConfigureServer != nil {
				cfg.ConfigureServer(i, o)
			}
		})
		urls = append(urls, node.URL)
	}

	gopts := cfg.Gateway
	gopts.Replicas = replicas
	if gopts.HealthInterval == 0 {
		gopts.HealthInterval = -1 // tests probe deterministically
	}
	if gopts.FailThreshold == 0 {
		gopts.FailThreshold = 1
	}
	if gopts.BackoffBase == 0 {
		gopts.BackoffBase = 1e6 // 1ms
	}
	if gopts.BackoffMax == 0 {
		gopts.BackoffMax = 5e6
	}
	gw, err := shard.NewGateway(urls, gopts)
	if err != nil {
		t.Fatalf("testutil: gateway: %v", err)
	}
	t.Cleanup(gw.Close)
	c.Gateway = gw
	c.ts = httptest.NewServer(gw)
	t.Cleanup(c.ts.Close)
	c.URL = c.ts.URL
	return c
}

// AddNode boots one streamd backend and appends it to c.Nodes. On a
// running cluster the gateway is NOT told about it: tests grow the
// deployment the way an operator would, via Gateway.AddBackend or POST
// /v1/admin/backends, which also triggers the rebalance that moves
// sessions onto the new node. configure, when non-nil, mutates the
// backend's server options before construction.
func (c *Cluster) AddNode(configure func(o *server.Options)) *Node {
	if h, ok := c.t.(interface{ Helper() }); ok {
		h.Helper()
	}
	node := &Node{}
	// The handler closes over the node so the listener (and its URL)
	// can exist before the server it fronts: backends need their own
	// URL at construction time to advertise it.
	// Framed requests are dispatched to this outermost handler too, so a
	// partitioned node aborts them as it aborts HTTP ones.
	node.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if node.dead.Load() {
			panic(http.ErrAbortHandler) // sever without a response
		}
		node.srv.Load().ServeHTTP(w, r)
	}))
	node.ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		node.mu.Lock()
		defer node.mu.Unlock()
		if st == http.StateActive {
			node.requests++
		} else if st == http.StateHijacked {
			node.frames = append(node.frames, c)
		}
	}
	node.ts.Start()
	node.URL = node.ts.URL
	node.opts = server.Options{AdvertiseURL: node.URL}
	if configure != nil {
		configure(&node.opts)
	}
	if err := node.start(); err != nil {
		node.ts.Close()
		c.t.Fatalf("testutil: backend %d: %v", len(c.Nodes), err)
	}
	c.Nodes = append(c.Nodes, node)
	c.t.Cleanup(func() { c.Kill(node.URL) })
	return node
}

// start builds the node's server from its options and puts it behind
// the listener.
func (n *Node) start() error {
	srv, err := server.NewWithOptions(nil, core.DefaultParams(), fsm.DefaultConfig(), n.opts)
	if err != nil {
		return err
	}
	n.Server = srv
	n.srv.Store(srv)
	return nil
}

// Restart closes a durable backend's server (a graceful shutdown: the
// WAL flushed, a final snapshot taken) and reopens it from its DataDir
// behind the same listener, so it comes back under the same URL — a
// process restarted in place. Requests arriving in between reach the
// closed server.
func (c *Cluster) Restart(url string) {
	c.t.Helper()
	n := c.Node(url)
	if n.opts.DataDir == "" {
		c.t.Fatalf("testutil: restarting %s: the backend has no DataDir", url)
	}
	if err := n.Server.Close(); err != nil {
		c.t.Fatalf("testutil: closing %s: %v", url, err)
	}
	if err := n.start(); err != nil {
		c.t.Fatalf("testutil: reopening %s: %v", url, err)
	}
}

// Node returns the backend with the given base URL.
func (c *Cluster) Node(url string) *Node {
	for _, n := range c.Nodes {
		if n.URL == url {
			return n
		}
	}
	c.t.Fatalf("testutil: no cluster node with URL %s", url)
	return nil
}

// Kill shuts a backend's listener down hard, severing its connections
// — HTTP and framed, in flight and idle — so the process looks dead to
// the gateway and to its replication peers. The in-memory server object
// is left untouched — like a machine dropping off the network.
func (c *Cluster) Kill(url string) {
	n := c.Node(url)
	n.killed.Store(true)
	n.dead.Store(true)
	n.ts.CloseClientConnections()
	n.mu.Lock()
	for _, conn := range n.frames { // the listener does not reach them
		conn.Close()
	}
	n.mu.Unlock()
	n.ts.Close()
}

// Probe runs the gateway's health prober `times` times, synchronously.
// With the cluster's FailThreshold of 1, a single probe ejects every
// dead backend; readmission needs ReadmitThreshold consecutive
// successful probes.
func (c *Cluster) Probe(times int) {
	for i := 0; i < times; i++ {
		c.Gateway.Pool().ProbeAll()
	}
}
