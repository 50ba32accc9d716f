package main

// http_cluster: a three-node in-process cdbserve cluster on loopback,
// driven by two closed-loop clients with warm 16-point draws through
// /v1/sql, /v1/expr and /v1/sample. Setup learns each request's owner
// from the X-CDB-Owner header, so the ingress node is chosen per request
// and exactly one third of requests enter at the owner while two thirds
// take one forward hop, whatever ports the ring hashed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/constraint"
	"repro/internal/server"
)

const (
	clusterN       = 16
	clusterClients = 2
	clusterDB      = "bench"
)

// clusterTpl is one request shape: a catalog target through one
// endpoint ("sql", "expr" or "sample").
type clusterTpl struct {
	target   int
	endpoint string
}

// clusterCycle is the request order over catalog indices (K2 0, K3 1,
// K4 2, K6 3, P 4, D 5, (A∪C)∩B 6, T 7). /v1/sql and /v1/expr share the
// canonical plan key, so each geometry is prepared once for them;
// /v1/sample routes on the name key and is kept to the cheap targets.
var clusterCycle = []clusterTpl{
	{0, "sample"}, {1, "sql"}, {7, "expr"}, {4, "sample"}, {5, "sql"}, {1, "expr"},
	{2, "sql"}, {6, "expr"}, {0, "sql"}, {5, "sample"}, {4, "expr"}, {3, "sql"},
}

// clusterReq is request i: its template, seed and ingress rotation.
type clusterReq struct {
	tpl  int
	seed uint64
	// hop is 0 to enter at the owner, 1 or 2 to enter at the first or
	// second other node.
	hop int
}

// clusterWindow is the throughput window: 20 cycles, a multiple of the
// template cycle and of the three-way ingress rotation.
const clusterWindow = 240

func clusterRequest(seed uint64, i int) clusterReq {
	return clusterReq{tpl: i % len(clusterCycle), seed: mix(seed, uint64(i)) >> 16, hop: i % 3}
}

// node is one in-process cdbserve instance.
type node struct {
	url     string
	srv     *server.Server
	handler http.Handler // the routed mux hs serves; the traced run calls it directly
	hs      *http.Server
	done    chan struct{}
}

// clusterHandle is a running, registered and warmed cluster.
type clusterHandle struct {
	nodes  []*node
	client *http.Client
	// owners[t] is the node index owning clusterCycle[t]'s cache key.
	owners []int
}

// startCluster boots three nodes on loopback ports.
func startCluster() (*clusterHandle, error) {
	c := &clusterHandle{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterClients}}}
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		c.nodes = append(c.nodes, &node{url: "http://" + ln.Addr().String(), done: make(chan struct{})})
	}
	for i, n := range c.nodes {
		var peers []string
		for j, m := range c.nodes {
			if j != i {
				peers = append(peers, m.url)
			}
		}
		n.srv = server.New(server.Config{
			Cluster: cluster.Config{Self: n.url, Peers: peers},
			Logger:  log.New(io.Discard, "", 0),
		})
		n.handler = n.srv.Handler()
		n.hs = &http.Server{Handler: n.handler}
		go func(n *node, ln net.Listener) {
			defer close(n.done)
			_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
		}(n, lns[i])
	}
	return c, nil
}

// close stops every node and waits for its serve loop to end.
func (c *clusterHandle) close() {
	for _, n := range c.nodes {
		n.hs.Close()
		<-n.done
		n.srv.Close()
	}
	c.client.CloseIdleConnections()
}

// request builds the HTTP request for template t entering at base.
func (c *clusterHandle) request(cat *catalog, base string, t clusterTpl, n int, seed uint64) (*http.Request, error) {
	tg := cat.Targets[t.target]
	var (
		url, ctype string
		body       string
	)
	switch t.endpoint {
	case "sql":
		url, ctype = base+"/v1/sql?database="+clusterDB, "text/plain"
		body = tg.sampleSQL(n, seed)
	case "expr":
		url, ctype = base+"/v1/expr", "application/json"
		body = fmt.Sprintf(`{"database":%q,"expr":%s,"mode":"sample","n":%d,"seed":%d}`, clusterDB, tg.JSON, n, seed)
	case "sample":
		url, ctype = base+"/v1/sample", "application/json"
		body = fmt.Sprintf(`{"database":%q,"relation":%q,"n":%d,"seed":%d}`, clusterDB, tg.Name, n, seed)
	default:
		return nil, fmt.Errorf("unknown endpoint %q", t.endpoint)
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	return req, nil
}

// reply is one read HTTP response.
type reply struct {
	status int
	owner  string // X-CDB-Owner: set when the request was forwarded
	body   []byte
}

func (c *clusterHandle) do(req *http.Request) (reply, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, owner: resp.Header.Get("X-CDB-Owner"), body: body}, nil
}

// points decodes a sample/expr/sql response body.
func points(body []byte) ([][]float64, error) {
	var out struct {
		Points [][]float64 `json:"points"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Points, nil
}

// ingress returns the node a request enters at.
func (c *clusterHandle) ingress(r clusterReq) int {
	return (c.owners[r.tpl] + r.hop) % len(c.nodes)
}

func (c *clusterHandle) nodeIndex(url string) int {
	for i, n := range c.nodes {
		if n.url == url {
			return i
		}
	}
	return -1
}

// openCluster boots, registers and warms a cluster: every template is
// sent once through node 0 (preparing it on its owner, which the
// response names) and once through each other node (so their warm-key
// sets skip the cold-forward latch during timing).
func openCluster(cat *catalog) (*clusterHandle, error) {
	c, err := startCluster()
	if err != nil {
		return nil, err
	}
	reg, _ := json.Marshal(map[string]string{"name": clusterDB, "source": cat.Program})
	req, err := http.NewRequest(http.MethodPost, c.nodes[0].url+"/v1/databases", bytes.NewReader(reg))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var rep reply
		rep, err = c.do(req)
		if err == nil && rep.status/100 != 2 {
			err = fmt.Errorf("register: status %d: %s", rep.status, rep.body)
		}
	}
	if err != nil {
		c.close()
		return nil, err
	}
	c.owners = make([]int, len(clusterCycle))
	// Two warmers: preparation is CPU-bound and there are two CPUs.
	var wg sync.WaitGroup
	errs := make([]error, len(clusterCycle))
	for w := 0; w < clusterClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < len(clusterCycle); t += clusterClients {
				errs[t] = c.warm(cat, t)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// warm prepares template t on its owner and records the owner.
func (c *clusterHandle) warm(cat *catalog, t int) error {
	send := func(i int) (reply, error) {
		req, err := c.request(cat, c.nodes[i].url, clusterCycle[t], clusterN, 1)
		if err != nil {
			return reply{}, err
		}
		rep, err := c.do(req)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("warm %s via %s: status %d: %s", cat.Targets[clusterCycle[t].target].Name, clusterCycle[t].endpoint, rep.status, rep.body)
		}
		return rep, err
	}
	rep, err := send(0)
	if err != nil {
		return err
	}
	c.owners[t] = 0
	if rep.owner != "" {
		if c.owners[t] = c.nodeIndex(rep.owner); c.owners[t] < 0 {
			return fmt.Errorf("unknown owner %q", rep.owner)
		}
	}
	for i := range c.nodes {
		if i != 0 {
			if _, err := send(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// clusterServed is one facade-phase request of the traced run.
type clusterServed struct {
	served
	forwarded bool
}

// runCluster is the closed loop: two clients share one request counter.
func runCluster(c *clusterHandle, cat *catalog, oracles []*oracle, seed uint64, d time.Duration, keep bool) (*tally, []clusterServed, error) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  = &tally{}
		log  []clusterServed
		wg   sync.WaitGroup
		ferr error
	)
	start := time.Now()
	for w := 0; w < clusterClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tally{}
			var mine []clusterServed
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				r := clusterRequest(seed, i)
				tpl := clusterCycle[r.tpl]
				req, err := c.request(cat, c.nodes[c.ingress(r)].url, tpl, clusterN, r.seed)
				if err != nil {
					mu.Lock()
					ferr = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				rep, err := c.do(req)
				lat := time.Since(t0)
				var pts [][]float64
				if err == nil && rep.status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", rep.status, rep.body)
				}
				if err == nil {
					pts, err = points(rep.body)
				}
				if err == nil {
					err = oracles[tpl.target].checkPoints(vectors(pts), clusterN)
				}
				if err == nil && keep {
					mine = append(mine, clusterServed{served{i: i, latency: lat, hash: pointsHash(vectors(pts))}, rep.owner != ""})
				}
				t.record(i, lat, len(pts), fmt.Sprintf("%s via /v1/%s", cat.Targets[tpl.target].Name, tpl.endpoint), err)
			}
			mu.Lock()
			all.merge(t)
			log = append(log, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, log, ferr
}

// checkClusterVolumes asks each target's owner for its volume over
// /v1/expr and compares it with the exact volume.
func checkClusterVolumes(c *clusterHandle, cat *catalog, oracles []*oracle, t *tally) {
	for i, tg := range cat.Targets {
		if tg.Kind == "projection" {
			continue
		}
		exact, err := oracles[i].volume()
		if err != nil {
			t.volumeFail("exact volume "+tg.Name, err)
			continue
		}
		body := fmt.Sprintf(`{"database":%q,"expr":%s,"mode":"volume"}`, clusterDB, tg.JSON)
		req, err := http.NewRequest(http.MethodPost, c.nodes[0].url+"/v1/expr", strings.NewReader(body))
		if err != nil {
			t.volumeFail("volume "+tg.Name, err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		rep, err := c.do(req)
		var out struct {
			Volume *float64 `json:"volume"`
		}
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		}
		if err == nil {
			err = json.Unmarshal(rep.body, &out)
		}
		if err == nil && out.Volume == nil {
			err = fmt.Errorf("no volume in %s", rep.body)
		}
		if err != nil {
			t.volumeFail("volume "+tg.Name, err)
			continue
		}
		t.volume(*out.Volume, exact, defaultEps())
	}
}

// clusterOracles parses the catalog once and computes every target's
// exact relation.
func clusterOracles(cat *catalog) ([]*oracle, error) {
	db, err := constraint.Parse(cat.Program)
	if err != nil {
		return nil, err
	}
	var out []*oracle
	for _, tg := range cat.Targets {
		o, err := oracleOf(db, tg.Node)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", tg.Name, err)
		}
		out = append(out, o)
	}
	return out, nil
}

func httpCluster(ctx context.Context, seed uint64, d time.Duration) (*result, error) {
	cat := newCatalog(seed)
	oracles, err := clusterOracles(cat)
	if err != nil {
		return nil, err
	}
	c, setups, err := setupRepeated(setupRepeats, func() (*clusterHandle, error) { return openCluster(cat) },
		(*clusterHandle).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	t, _, err := runCluster(c, cat, oracles, seed, d, false)
	if err != nil {
		return nil, err
	}
	checkClusterVolumes(c, cat, oracles, t)
	return finish(t, clusterClients, clusterWindow, 0.99, setups), nil
}
