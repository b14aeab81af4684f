package testutil

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
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
	srv    atomic.Pointer[server.Server] // Server, as requests reach it
	opts   server.Options
	down   atomic.Bool // killed or partitioned off
	host   *host       // the carrier's entry for URL; nil on a listener

	requests, upgrades atomic.Int64 // what a listener served (ClusterConfig.Sockets)
}

// serve hands a request to the node's server. A node killed or
// partitioned off aborts it without a response.
func (n *Node) serve(w http.ResponseWriter, r *http.Request) {
	if n.down.Load() {
		panic(http.ErrAbortHandler)
	}
	n.srv.Load().ServeHTTP(w, r)
}

// Requests counts the HTTP requests a node on a listener
// (ClusterConfig.Sockets) has served other than upgrades to the frame
// carrier, and the upgrades.
func (n *Node) Requests() (plain, upgrades int) {
	u := n.upgrades.Load()
	return int(n.requests.Load() - u), int(u)
}

// Killed reports whether the node has been killed or partitioned off.
func (n *Node) Killed() bool { return n.down.Load() }

// PartitionOff makes the node refuse every later request, like a
// machine dropping off the network, and lets the exchanges in flight
// finish. It waits for nothing, so a hook inside one of the node's own
// handlers may call it, as it may Kill.
func (n *Node) PartitionOff() { n.down.Store(true) }

// Cluster is an in-process sharded deployment: N streamd backends
// behind a replication-aware gateway. Each node is a name,
// http://shard-<i>, and the gateway http://gateway; a Carrier delivers
// every call between them, and the client's through
// http.DefaultTransport, in memory. The names are the cluster's while
// it runs, so ring placement is the same in every run. Health probing
// is disabled so tests drive ejection deterministically via Probe; the
// gateway ejects after a single failed probe and readmits after two
// consecutive successes.
type Cluster struct {
	Gateway *shard.Gateway
	URL     string // gateway base URL
	Nodes   []*Node
	// Transport is the carrier the gateway and the nodes call through;
	// nil with ClusterConfig.Sockets, where they use the frame carrier.
	Transport http.RoundTripper

	t       testing.TB
	sockets bool
	hosts   []*host
	closers []func()
	closed  bool
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
	// Sockets puts each node on a loopback listener, its URL the
	// listener's, and leaves every call between nodes to the production
	// frame carrier; Node.Requests counts what each served.
	Sockets bool
}

// StartCluster boots n streamd backends behind a gateway with the
// given replication factor and closes the cluster when t ends.
// Backends advertise their own URL, so WAL shipments between them
// carry real source identities.
func StartCluster(t testing.TB, n, replicas int, conf ...func(*ClusterConfig)) *Cluster {
	t.Helper()
	var cfg ClusterConfig
	for _, fn := range conf {
		fn(&cfg)
	}
	c := &Cluster{t: t, sockets: cfg.Sockets}
	t.Cleanup(c.Close)
	if !cfg.Sockets {
		carrier := new(Carrier)
		c.Transport = carrier
		c.closers = append(c.closers, carrier.Close)
	}
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
	if gopts.Transport == nil {
		gopts.Transport = c.Transport
	}
	gw, err := shard.NewGateway(urls, gopts)
	if err != nil {
		t.Fatalf("testutil: gateway: %v", err)
	}
	c.closers = append(c.closers, gw.Close)
	c.Gateway = gw
	c.URL, _ = c.name("gateway", gw)
	return c
}

// name registers h under http://<name> until the cluster closes.
func (c *Cluster) name(name string, h http.Handler) (string, *host) {
	hs, err := register(name, h)
	if err != nil {
		c.t.Fatal(err)
	}
	c.hosts = append(c.hosts, hs)
	c.closers = append(c.closers, hs.unregister)
	return "http://" + name, hs
}

// Close closes the cluster: its gateway's name is freed once the
// requests in flight to it are answered, then the gateway closes, and
// each node is killed and its name freed. StartCluster registers it
// with t; a test that starts a cluster again before it ends closes the
// last one first.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// Exchanges counts the requests the carrier has delivered to the
// cluster's names: the client's to the gateway and every call between
// nodes.
func (c *Cluster) Exchanges() int {
	var n int64
	for _, h := range c.hosts {
		n += h.exchanges.Load()
	}
	return int(n)
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
	if c.sockets {
		ts := httptest.NewUnstartedServer(http.HandlerFunc(node.serve))
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateActive:
				node.requests.Add(1)
			case http.StateHijacked:
				node.upgrades.Add(1)
			}
		}
		ts.Start()
		c.closers = append(c.closers, ts.Close)
		node.URL = ts.URL
	} else {
		node.URL, node.host = c.name(fmt.Sprintf("shard-%d", len(c.Nodes)), http.HandlerFunc(node.serve))
		c.closers = append(c.closers, node.kill) // before the name is freed
		node.opts.ReplicateTransport = c.Transport
	}
	node.opts.AdvertiseURL = node.URL
	if configure != nil {
		configure(&node.opts)
	}
	if err := node.start(); err != nil {
		c.t.Fatalf("testutil: backend %d: %v", len(c.Nodes), err)
	}
	c.Nodes = append(c.Nodes, node)
	return node
}

// start builds the node's server from its options and puts it behind
// its URL.
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
// under the same URL — a process restarted in place. Requests arriving
// in between reach the closed server.
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

// Kill makes a backend look dead to the gateway and to its peers: its
// name is refused and the exchanges in flight are aborted (on a
// listener, every later request is). The server object is left as it
// is, like a machine dropping off the network.
func (c *Cluster) Kill(url string) { c.Node(url).kill() }

func (n *Node) kill() {
	n.down.Store(true)
	if n.host != nil {
		n.host.abort(fmt.Errorf("testutil: %s was killed", n.URL))
	}
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
