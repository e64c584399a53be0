package livectl

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/ctlhttp"
	"algossip/internal/daemon"
)

// deploy runs two in-process daemons hosting the two halves of an n-ring
// over loopback TCP and joins a controller to them the way Launch does
// (every gossip address read from /status, declared with /peers); tweak
// adjusts one process's options. Every daemon must have drained cleanly
// by the end of the test, through Drain or the cleanup's cancel.
func deploy(t *testing.T, n, k int, tweak func(p int, o *daemon.Options)) (context.Context, *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	errs := make(chan error, 2)
	c := &Cluster{}
	for p := 0; p < 2; p++ {
		o := daemon.Options{
			GraphName: "ring", GraphN: n,
			K: k, Interval: 2 * time.Millisecond, Seed: 7, ChaosSeed: uint64(p),
		}
		for v := p * n / 2; v < (p+1)*n/2; v++ {
			o.Local = append(o.Local, core.NodeID(v))
		}
		if tweak != nil {
			tweak(p, &o)
		}
		d, err := daemon.New(o)
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- d.Run(ctx) }()
		c.procs = append(c.procs, &proc{ctl: d.ControlAddr()})
	}
	t.Cleanup(func() {
		cancel()
		for range c.procs {
			if err := <-errs; err != nil {
				t.Errorf("daemon run: %v", err)
			}
		}
	})
	if err := c.join(ctx); err != nil {
		t.Fatal(err)
	}
	return ctx, c
}

// TestAttachDrivesDeployment walks a controller through a deployment's
// whole life over the control plane alone.
func TestAttachDrivesDeployment(t *testing.T) {
	const n, k = 6, 3
	ctx, c := deploy(t, n, k, nil)
	if c.N() != n || c.Procs() != 2 || c.k != k {
		t.Fatalf("attached to n=%d procs=%d k=%d, want %d, 2, %d", c.N(), c.Procs(), c.k, n, k)
	}
	if err := c.SeedRoundRobin(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	conv, err := c.WaitConverged(ctx)
	tick := conv.Tick
	if err != nil || tick < 1 || conv.ByzantineNodes != 0 {
		t.Fatalf("converged at %+v, %v", conv, err)
	}
	status, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for p, st := range status {
		if !st.Done || len(st.Nodes) != n/2 || st.GFTier == "" {
			t.Errorf("process %d status: %+v", p, st)
		}
		for _, node := range st.Nodes {
			if c.home[node.ID] != p || node.Rank != k || node.DoneTick > tick {
				t.Errorf("process %d node %+v (stopping tick %d)", p, node, tick)
			}
		}
	}

	// Chaos: a partition lands on every process, an empty request reads
	// the state back, Heal lifts it and leaves the latency profile alone.
	if err := c.Partition(ctx, []core.NodeID{4, 5}); err != nil {
		t.Fatal(err)
	}
	ms := 1.5
	if _, err := c.Chaos(ctx, daemon.ChaosRequest{LatencyMS: &ms}); err != nil {
		t.Fatal(err)
	}
	states, err := c.Chaos(ctx, daemon.ChaosRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for p, st := range states {
		if !reflect.DeepEqual(st.Partition, []int{4, 5}) || st.LatencyMS != ms {
			t.Errorf("process %d chaos state %+v, want partition [4 5] at %vms", p, st, ms)
		}
	}
	if err := c.Heal(ctx); err != nil {
		t.Fatal(err)
	}
	if states, err = c.Chaos(ctx, daemon.ChaosRequest{}); err != nil {
		t.Fatal(err)
	}
	for p, st := range states {
		if len(st.Partition) != 0 || st.LatencyMS != ms {
			t.Errorf("process %d after Heal: %+v", p, st)
		}
	}
	if _, err := c.Chaos(ctx, daemon.ChaosRequest{Partition: []int{n}}); err == nil {
		t.Error("partition of a node outside the graph accepted")
	}

	if err := c.Kill(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(ctx, n); err == nil {
		t.Error("kill of a node outside the deployment accepted")
	}
	text, err := c.Metrics(ctx, 1)
	if err != nil || !strings.Contains(text, "algossip_sends_total") {
		t.Fatalf("metrics: %v\n%s", err, text)
	}
	if _, err := c.Metrics(ctx, 2); err == nil {
		t.Error("metrics of process 2 of 2 accepted")
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSeedRoundRobinSkipsByzantine: a process corrupting every frame is
// recognised from its control plane, and no message is seeded behind it —
// nothing seeded there could ever get out.
func TestSeedRoundRobinSkipsByzantine(t *testing.T) {
	const n, k = 6, 4
	ctx, c := deploy(t, n, k, func(p int, o *daemon.Options) {
		if p == 1 {
			o.ChaosCorrupt = 1
		}
	})
	if got, want := c.HonestNodes(), []core.NodeID{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("honest nodes %v, want %v", got, want)
	}
	if err := c.SeedRoundRobin(ctx, nil); err != nil {
		t.Fatal(err)
	}
	status, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for want, st := range [][]int{{2, 1, 1}, {0, 0, 0}} {
		for i, node := range status[want].Nodes {
			if node.Rank != st[i] {
				t.Errorf("node %d seeded to rank %d, want %d", node.ID, node.Rank, st[i])
			}
		}
	}
	// The honest half converges on its own; of the Byzantine half, nodes
	// 3 and 5 have an honest ring neighbour and can complete, node 4 hears
	// only corrupted frames and never does.
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	conv, err := c.WaitConverged(ctx)
	if err != nil || conv.Tick < 1 || conv.ByzantineNodes != 3 || conv.ByzantineDone > 2 {
		t.Fatalf("converged at %+v, %v", conv, err)
	}
	text, err := c.Metrics(ctx, 1)
	if err != nil || !strings.Contains(text, `algossip_node_rank{node="4"} 0`+"\n") {
		t.Fatalf("node 4 hears only Byzantine neighbours and was seeded nothing, yet (%v):\n%s", err, text)
	}
}

// TestWaitConvergedIgnoresByzantineHosts: the stopping time is the last
// honest-hosted node's DoneTick, and a Byzantine process whose nodes never
// complete does not hold WaitConverged up — it is reported beside the tick.
func TestWaitConvergedIgnoresByzantineHosts(t *testing.T) {
	fake := func(corrupt float64, nodes ...daemon.NodeStatus) string {
		mux := http.NewServeMux()
		ctlhttp.HandleBare(mux, "GET /status", "", func() (any, error) {
			return daemon.StatusResponse{Nodes: nodes}, nil
		})
		ctlhttp.Handle(mux, "POST /chaos", "", func(daemon.ChaosRequest) (any, error) {
			return daemon.ChaosState{CorruptRate: corrupt}, nil
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return strings.TrimPrefix(srv.URL, "http://")
	}
	honest := fake(0,
		daemon.NodeStatus{ID: 0, K: 3, Rank: 3, Done: true, DoneTick: 7},
		daemon.NodeStatus{ID: 1, K: 3, Rank: 3, Done: true, DoneTick: 12})
	byzantine := fake(1,
		daemon.NodeStatus{ID: 2, K: 3, Rank: 3, Done: true, DoneTick: 40},
		daemon.NodeStatus{ID: 3, K: 3, Rank: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Attach(ctx, honest, byzantine)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := c.WaitConverged(ctx)
	if want := (Convergence{Tick: 12, ByzantineDone: 1, ByzantineNodes: 2}); err != nil || conv != want {
		t.Fatalf("WaitConverged = %+v, %v; want %+v", conv, err, want)
	}

	// An honest node still short of full rank is waited for.
	lagging := fake(0, daemon.NodeStatus{ID: 4, K: 3, Rank: 2})
	c, err = Attach(ctx, honest, lagging)
	if err != nil {
		t.Fatal(err)
	}
	short, stop := context.WithTimeout(ctx, 600*time.Millisecond)
	defer stop()
	if conv, err := c.WaitConverged(short); err == nil {
		t.Fatalf("WaitConverged returned %+v with an honest node at rank 2 of 3", conv)
	}
}

// TestMalformedBodies: every POST route answers a body it cannot use with
// a 4xx — truncated JSON, wrong types, ids outside the deployment, bytes
// that are not base64 — and the daemon goes on serving.
func TestMalformedBodies(t *testing.T) {
	ctx, c := deploy(t, 4, 2, func(_ int, o *daemon.Options) { o.PayloadLen = 2 })
	bad := map[string][]string{
		"/seed": {
			`{"node":0,`, `{"node":"zero","index":0}`, `[1,2]`, ``,
			`{"node":9,"index":0,"payload":"AQI="}`, `{"node":-1,"index":0,"payload":"AQI="}`,
			`{"node":0,"index":2,"payload":"AQI="}`, `{"node":0,"index":-1,"payload":"AQI="}`,
			`{"node":0,"index":0,"payload":"%%%"}`, `{"node":0,"index":0,"payload":"AQ=="}`,
			`{"node":0,"index":0}`,
		},
		"/topology": {
			`{"family":`, `{"family":7}`, `{"family":"nosuch","n":4}`,
			`{"family":"ring","n":5}`, `{"family":"ring","n":-4}`, `{"family":"ring","n":4,"seed":-1}`,
		},
		"/kill": {`{"node":`, `{"node":"0"}`, `{"node":9}`, `{"node":-1}`, `{"node":2}`},
		"/peers": {
			`{"4":"127.0.0.1:9004"}`, `{"-1":"127.0.0.1:9000"}`, `{"zero":"127.0.0.1:9000"}`,
			`{"1":""}`, `{"1":"127.0.0.1"}`, `["127.0.0.1:9000"]`, `{"2":7}`, ``,
		},
		"/chaos": {
			`{"heal":`, `{"heal":"yes"}`, `{"partition":[9]}`, `{"partition":[-1]}`,
			`{"partition":"0"}`, `{"corrupt_rate":2}`, `{"latency_ms":-1}`, `{"jitter_ms":"1"}`,
		},
	}
	// A body over the control plane's bound is refused unread, whatever
	// it would have said.
	for path := range bad {
		bad[path] = append(bad[path], `{"pad":"`+strings.Repeat("a", ctlhttp.MaxBody)+`"}`)
	}
	ctl := c.procs[0].ctl // hosts nodes 0 and 1
	for path, bodies := range bad {
		for _, body := range bodies {
			resp, err := c.client.Post("http://"+ctl+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s %.80s: %v", path, body, err)
			}
			_ = resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("POST %s %.80s: %s, want a 4xx", path, body, resp.Status)
			}
		}
	}
	status, err := c.Status(ctx)
	if err != nil {
		t.Fatalf("daemon stopped serving /status: %v", err)
	}
	for _, st := range status {
		for _, node := range st.Nodes {
			if node.Rank != 0 {
				t.Errorf("a refused request changed node %d: %+v", node.ID, node)
			}
		}
	}
	if err := c.do(ctx, http.MethodGet, ctl, "/nosuch", nil, nil); err == nil {
		t.Error("GET of an unknown route succeeded")
	}
}

// TestChildArgsRoundTrip: the command line livectl renders for a child
// parses back, through the binding gossipd uses, to the Options it came
// from — for every field but the process-local ones, so a word added to
// Options and forgotten in BindFlags fails here.
func TestChildArgsRoundTrip(t *testing.T) {
	want := daemon.Options{Local: []core.NodeID{3, 4, 5}}
	processLocal := map[string]bool{"HTTPAddr": true, "Local": true, "Peers": true}
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case processLocal[v.Type().Field(i).Name]:
		case f.Kind() == reflect.String:
			f.SetString("word" + v.Type().Field(i).Name)
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(int64(1500+i) * int64(time.Microsecond))
		case f.CanInt():
			f.SetInt(int64(10 + i))
		case f.CanUint():
			f.SetUint(uint64(1<<40 + i))
		case f.CanFloat():
			f.SetFloat(0.125 * float64(i))
		default:
			t.Fatalf("Options.%s: a %s this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
	}

	var got daemon.Options
	fs := flag.NewFlagSet("gossipd", flag.ContinueOnError)
	got.BindFlags(fs)
	nodes := fs.String("nodes", "", "")
	if err := fs.Parse(childArgs(want)); err != nil {
		t.Fatal(err)
	}
	var err error
	if got.Local, err = daemon.ParseNodeList(*nodes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost something:\n got %+v\nwant %+v", got, want)
	}
}
