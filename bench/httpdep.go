package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/server"
	"stsmatch/internal/shard"
	"stsmatch/internal/store"
)

const (
	replicas      = 2                     // cluster replication factor
	fsyncInterval = 50 * time.Millisecond // streamd's default group-commit interval
)

// node is one server process-equivalent: its database, the server on
// it, and the loopback listener in front.
type node struct {
	db  *store.DB
	ln  net.Listener // until hs serves on it
	srv *server.Server
	hs  *http.Server
	url string
}

// httpDep is the online and cluster deployment: one server, or three
// shards at R=2 behind a gateway, all in this process on loopback.
type httpDep struct {
	in     *inputs
	dir    string
	nodes  []*node
	gw     *shard.Gateway
	gwHS   *http.Server
	base   string // where clients send ops: the server, or the gateway
	client *http.Client
	serve  sync.WaitGroup
	built  int
	tr     *tracer
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (d *httpDep) serveOn(ln net.Listener, h http.Handler) *http.Server {
	hs := &http.Server{Handler: h}
	d.serve.Add(1)
	go func() {
		defer d.serve.Done()
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close()
	}()
	return hs
}

// buildHTTP is the cold build of a served deployment: segmentation,
// store load, index build, WAL open (which seeds the data dir with a
// snapshot of the history), listeners, gateway, and the live sessions
// with their warm signal and standing subscriptions. History is
// loaded into each shard by ring ownership (both owners at R=2) rather
// than ingested over HTTP, so a cold build is cheap enough to repeat
// every round; live sessions go through the public API.
func buildHTTP(in *inputs) (dep deployment, err error) {
	if err := os.MkdirAll(in.tmp, 0o755); err != nil {
		return nil, err
	}
	d := &httpDep{in: in}
	if d.dir, err = os.MkdirTemp(in.tmp, "data-*"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.close() //nolint:errcheck // the build error is the one to report
		}
	}()
	n := in.spec.shards
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		nd := &node{db: store.NewDB()}
		if nd.ln, nd.url, err = listen(); err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, nd)
	}
	holders := func(string) []*node { return d.nodes }
	if in.spec.shards > 0 {
		ring := shard.NewRing(shard.DefaultVnodes)
		byURL := make(map[string]*node, n)
		for _, nd := range d.nodes {
			ring.Add(nd.url)
			byURL[nd.url] = nd
		}
		holders = func(pid string) []*node {
			var out []*node
			for _, u := range ring.Owners(pid, replicas) {
				out = append(out, byURL[u])
			}
			return out
		}
	}
	if err := loadHistory(in, func(pid string) []*store.DB {
		var dbs []*store.DB
		for _, nd := range holders(pid) {
			dbs = append(dbs, nd.db)
		}
		return dbs
	}); err != nil {
		return nil, err
	}
	for i, nd := range d.nodes {
		nd.db.EnableIndexes()
		d.built += nd.db.NumVertices()
		nd.srv, err = server.NewWithOptions(nd.db, core.DefaultParams(), fsm.DefaultConfig(), server.Options{
			DataDir:       filepath.Join(d.dir, fmt.Sprintf("node-%d", i)),
			FsyncInterval: fsyncInterval,
			AdvertiseURL:  nd.url,
		})
		if err != nil {
			return nil, err
		}
		nd.hs, nd.ln = d.serveOn(nd.ln, nd.srv), nil
	}
	d.base = d.nodes[0].url
	if in.spec.shards > 0 {
		urls := make([]string, n)
		for i, nd := range d.nodes {
			urls[i] = nd.url
		}
		// No background probers: a round is shorter than their periods,
		// and a probe landing inside one would only add noise.
		d.gw, err = shard.NewGateway(urls, shard.Options{Replicas: replicas, HealthInterval: -1, FreshnessInterval: -1})
		if err != nil {
			return nil, err
		}
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		d.gwHS = d.serveOn(ln, d.gw)
		d.base = url
	}
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * in.spec.clients}}

	for _, l := range in.live {
		open, err := json.Marshal(server.CreateSessionRequest{PatientID: l.pid, SessionID: l.sid})
		if err != nil {
			return nil, err
		}
		if _, err := d.call(http.MethodPost, "/v1/sessions", open, http.StatusCreated); err != nil {
			return nil, err
		}
		if _, err := d.call(http.MethodPost, "/v1/sessions/"+l.sid+"/samples", l.warmBody, http.StatusOK); err != nil {
			return nil, err
		}
		for _, sub := range l.subBodies {
			if _, err := d.call(http.MethodPost, "/v1/subscriptions", sub, http.StatusCreated); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// call is one closed-loop request: send, read the whole reply, check
// the status.
func (d *httpDep) call(method, path string, body []byte, want int) ([]byte, error) {
	out, _, err := doHTTP(d.client, method, d.base+path, body, want)
	return out, err
}

func doHTTP(c *http.Client, method, url string, body []byte, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return out, resp.Header, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header, nil
}

func (d *httpDep) vertices() int { return d.built }

// traceTo: the servers trace every request whether asked to or not,
// so only the benchmark's own spans are new.
func (d *httpDep) traceTo(t *tracer) { d.tr = t }

func (d *httpDep) run(c int, o op) (time.Duration, error) {
	l := d.in.live[c]
	switch o.kind {
	case opQuery:
		t0 := time.Now()
		_, err := d.call(http.MethodPost, "/v1/match", d.in.pool[o.arg].body, http.StatusOK)
		dt := time.Since(t0)
		d.tr.child(c, "http.match", t0, dt)
		return dt, err
	case opPredict:
		t0 := time.Now()
		body, err := d.call(http.MethodGet, "/v1/sessions/"+l.sid+"/predict?delta=200ms", nil, http.StatusOK)
		dt := time.Since(t0)
		d.tr.child(c, "http.predict", t0, dt)
		if err != nil {
			return dt, err
		}
		var pr server.PredictionResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return dt, err
		}
		if len(pr.Pos) != 1 {
			return dt, fmt.Errorf("prediction has %d dims", len(pr.Pos))
		}
		return dt, l.checkPrediction(pr.Pos[0])
	default:
		t0 := time.Now()
		_, err := d.call(http.MethodPost, "/v1/sessions/"+l.sid+"/samples", l.batches[o.arg], http.StatusOK)
		dt := time.Since(t0)
		d.tr.child(c, "http.ingest", t0, dt)
		return dt, err
	}
}

// remoteMatches renders matches the way the server's /v1/match does.
func remoteMatches(ms []core.Match) []server.RemoteMatch {
	out := make([]server.RemoteMatch, len(ms))
	for i, m := range ms {
		out[i] = server.RemoteMatch{
			PatientID: m.Stream.PatientID, SessionID: m.Stream.SessionID,
			Start: m.Start, N: m.N, Relation: m.Relation.String(),
			Distance: m.Distance, Weight: m.Weight,
		}
	}
	return out
}

// verify is the served deployments' oracle, run once the round's ops
// have all been acknowledged: every live stream's PLR must equal the
// bench's segmentation of the acknowledged samples (so no acked batch
// is missing), and every pool query through the HTTP surface must
// return matches byte-identical to a single-node matcher holding the
// same vertices.
func (d *httpDep) verify() (t tally) {
	oracle := store.NewDB()
	if err := d.in.loadOracleHistory(oracle); err != nil {
		t.attempted++
		t.fail(err)
		return t
	}
	for _, l := range d.in.live {
		t.attempted++
		want, err := segment(l.sig, 0, l.sig.len())
		if err != nil {
			t.fail(err)
			continue
		}
		p, err := oracle.AddPatient(store.PatientInfo{ID: l.pid})
		if err == nil {
			err = p.AddStream(l.sid).Append(want...)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		body, err := d.call(http.MethodGet, "/v1/sessions/"+l.sid+"/plr", nil, http.StatusOK)
		var got server.PLRResponse
		if err == nil {
			err = json.Unmarshal(body, &got)
		}
		if err == nil && !sameVertices(got.Vertices, want) {
			err = fmt.Errorf("live stream %s: /plr has %d vertices, the acknowledged samples segment to %d",
				l.sid, len(got.Vertices), len(want))
		}
		if err != nil {
			t.fail(err)
		}
	}
	oracle.EnableIndexes()
	m, err := core.NewMatcher(oracle, core.DefaultParams())
	if err != nil {
		t.attempted++
		t.fail(err)
		return t
	}
	for i, qw := range d.in.pool {
		t.attempted++
		body, err := d.call(http.MethodPost, "/v1/match", qw.body, http.StatusOK)
		if err != nil {
			t.fail(err)
			continue
		}
		var got struct {
			Matches json.RawMessage `json:"matches"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.fail(err)
			continue
		}
		ms, err := m.TopK(core.NewQuery(qw.seq, qw.pid, qw.sid), topK, nil)
		if err != nil {
			t.fail(err)
			continue
		}
		want, err := json.Marshal(remoteMatches(ms))
		if err != nil {
			t.fail(err)
			continue
		}
		if !bytes.Equal(got.Matches, want) {
			t.fail(fmt.Errorf("pool query %d: served matches differ from the single-node oracle:\n got %s\nwant %s", i, got.Matches, want))
		}
	}
	return t
}

// close stops every listener, waits for the serve loops, closes the
// servers (which snapshots and closes their WALs) and removes the data
// dir. It is safe on a partly built deployment.
func (d *httpDep) close() error {
	var errs []error
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.gwHS != nil {
		errs = append(errs, d.gwHS.Close())
	}
	if d.gw != nil {
		d.gw.Close()
	}
	for _, nd := range d.nodes {
		if nd.hs != nil {
			errs = append(errs, nd.hs.Close())
		}
		if nd.ln != nil {
			errs = append(errs, nd.ln.Close())
		}
	}
	d.serve.Wait()
	for _, nd := range d.nodes {
		if nd.srv != nil {
			errs = append(errs, nd.srv.Close())
		}
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// loadOracleHistory appends the bench's own segmentation of the
// history to an oracle database.
func (in *inputs) loadOracleHistory(db *store.DB) error {
	for i, seq := range in.histSeq {
		p, err := db.AddPatient(store.PatientInfo{ID: in.pids[i]})
		if err != nil {
			return err
		}
		if err := p.AddStream(in.sids[i]).Append(seq...); err != nil {
			return err
		}
	}
	return nil
}
