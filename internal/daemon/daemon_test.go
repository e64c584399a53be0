package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"algossip/internal/core"
	rt "algossip/internal/runtime"
)

func post(t *testing.T, ctl, path string, body any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post("http://"+ctl+path, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s: %s: %s", path, resp.Status, msg.String())
	}
}

func getJSON(t *testing.T, ctl, path string, out any) {
	t.Helper()
	resp, err := http.Get("http://" + ctl + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// TestDaemonConvergeAndDrain runs a two-daemon six-node deployment fully
// in-process (so -race sees every goroutine), brings it up the way a
// controller does — every gossip address read from GET /status and the
// whole map declared to both daemons with POST /peers — drives it over
// the HTTP control plane, and checks that cancellation drains cleanly
// with no leaked goroutines: the in-process twin of gossipd's SIGTERM
// path.
func TestDaemonConvergeAndDrain(t *testing.T) {
	const n, k = 6, 3
	mk := func(local []core.NodeID) *Daemon {
		d, err := New(Options{
			Local:     local,
			GraphName: "ring", GraphN: n, GraphSeed: 1,
			K: k, Interval: 2 * time.Millisecond, Seed: 7,
			LossRate: 0.05, ChaosSeed: 3,
		})
		if err != nil {
			t.Fatalf("daemon: %v", err)
		}
		return d
	}
	d1 := mk([]core.NodeID{0, 1, 2})
	d2 := mk([]core.NodeID{3, 4, 5})

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { errs <- d1.Run(ctx) }()
	go func() { errs <- d2.Run(ctx) }()

	peers := Peers{}
	for _, d := range []*Daemon{d1, d2} {
		var st StatusResponse
		getJSON(t, d.ControlAddr(), "/status", &st)
		for v, addr := range st.Gossip {
			peers[v] = addr
		}
	}
	if len(peers) != n {
		t.Fatalf("the daemons report %d gossip addresses for %d nodes: %v", len(peers), n, peers)
	}
	post(t, d1.ControlAddr(), "/peers", peers)
	post(t, d2.ControlAddr(), "/peers", peers)

	// Seed round-robin (message i at node i), release both start gates.
	for i := 0; i < k; i++ {
		d := d1
		if i >= 3 {
			d = d2
		}
		post(t, d.ControlAddr(), "/seed", map[string]any{"node": i, "index": i})
	}
	post(t, d1.ControlAddr(), "/start", nil)
	post(t, d2.ControlAddr(), "/start", nil)

	// Poll both control planes until every node reports full rank.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, d := range []*Daemon{d1, d2} {
			var st struct {
				Done bool `json:"done"`
			}
			getJSON(t, d.ControlAddr(), "/status", &st)
			done = done && st.Done
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deployment never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Metrics exposition sanity.
	resp, err := http.Get("http://" + d1.ControlAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	_, _ = metrics.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	for _, want := range []string{"algossip_sends_total", "algossip_node_rank", "algossip_node_rounds"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %s:\n%s", want, metrics.String())
		}
	}
	// Half the graph cannot count the frames of a round: the clock ends
	// every round.
	if c, dl := counter(t, metrics.String(), `algossip_rounds_total{closed_by="count"}`),
		counter(t, metrics.String(), `algossip_rounds_total{closed_by="deadline"}`); c != 0 || dl == 0 {
		t.Errorf("a daemon hosting half the graph ended %d rounds by count and %d by deadline", c, dl)
	}

	// Drain: post-convergence cancellation must be clean on both daemons.
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("daemon run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never drained")
		}
	}
	checkNoRuntimeGoroutines(t)
}

// TestDaemonDrainEndpoint covers POST /drain: the daemon shuts itself
// down without external cancellation.
func TestDaemonDrainEndpoint(t *testing.T) {
	d, err := New(Options{
		Local:     []core.NodeID{0, 1},
		GraphName: "ring", GraphN: 2, GraphSeed: 1,
		K: 1, Interval: 2 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(context.Background()) }()
	post(t, d.ControlAddr(), "/seed", map[string]any{"node": 0, "index": 0})
	post(t, d.ControlAddr(), "/start", nil)
	post(t, d.ControlAddr(), "/drain", nil)
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("drain was not clean: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never drained")
	}
	checkNoRuntimeGoroutines(t)
}

// TestDaemonChaosEndpoint drives the /chaos control surface end to end on
// a live single-process deployment: degrade (latency + corruption) before
// start, converge through the degradation, partition mid-flight, heal,
// and check that every state change round-trips through GET /chaos and
// that injection counters reach the metrics exposition.
func TestDaemonChaosEndpoint(t *testing.T) {
	d, err := New(Options{
		Local:     []core.NodeID{0, 1, 2, 3},
		GraphName: "ring", GraphN: 4, GraphSeed: 1,
		K: 2, Interval: 2 * time.Millisecond, Seed: 7,
		ChaosSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(ctx) }()
	ctl := d.ControlAddr()

	// The zero-knob layer is transparent and reports as such.
	var st struct {
		LatencyMS   float64 `json:"latency_ms"`
		JitterMS    float64 `json:"jitter_ms"`
		CorruptRate float64 `json:"corrupt_rate"`
		Partition   []int   `json:"partition"`
		Cut         uint64  `json:"cut"`
		Corrupted   uint64  `json:"corrupted"`
	}
	getJSON(t, ctl, "/chaos", &st)
	if st.LatencyMS != 0 || st.CorruptRate != 0 || len(st.Partition) != 0 {
		t.Fatalf("fresh daemon reports degradation: %+v", st)
	}

	// Degrade, then converge through it.
	post(t, ctl, "/chaos", map[string]any{"latency_ms": 1.0, "jitter_ms": 0.5, "corrupt_rate": 0.3})
	getJSON(t, ctl, "/chaos", &st)
	if st.LatencyMS != 1 || st.JitterMS != 0.5 || st.CorruptRate != 0.3 {
		t.Fatalf("chaos state did not round-trip: %+v", st)
	}
	for i := 0; i < 2; i++ {
		post(t, ctl, "/seed", map[string]any{"node": i, "index": i})
	}
	post(t, ctl, "/start", nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var status struct {
			Done bool `json:"done"`
		}
		getJSON(t, ctl, "/status", &status)
		if status.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deployment never converged under chaos")
		}
		time.Sleep(5 * time.Millisecond)
	}
	getJSON(t, ctl, "/chaos", &st)
	if st.Corrupted == 0 {
		t.Error("corrupt_rate 0.3 corrupted nothing during convergence")
	}

	// Partition, observe cuts, heal.
	post(t, ctl, "/chaos", map[string]any{"partition": []int{1, 2}})
	getJSON(t, ctl, "/chaos", &st)
	if len(st.Partition) != 2 || st.Partition[0] != 1 || st.Partition[1] != 2 {
		t.Fatalf("partition did not round-trip: %+v", st)
	}
	cutDeadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ctl, "/chaos", &st)
		if st.Cut > 0 {
			break
		}
		if time.Now().After(cutDeadline) {
			t.Fatal("partition cut no traffic (post-done serving keeps gossiping)")
		}
		time.Sleep(5 * time.Millisecond)
	}
	post(t, ctl, "/chaos", map[string]any{"heal": true})
	getJSON(t, ctl, "/chaos", &st)
	if len(st.Partition) != 0 {
		t.Fatalf("heal left a partition: %+v", st)
	}

	// Bad requests are rejected with 400.
	for _, bad := range []map[string]any{
		{"corrupt_rate": 1.5},
		{"latency_ms": -1.0},
		{"partition": []int{99}},
	} {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(bad)
		resp, err := http.Post("http://"+ctl+"/chaos", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad chaos request %v: status %s, want 400", bad, resp.Status)
		}
	}

	// The injection counters surface in /metrics.
	resp, err := http.Get("http://" + ctl + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	_, _ = metrics.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	for _, want := range []string{"algossip_chaos_cut_total", "algossip_chaos_corrupt_total"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("drain was not clean: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never drained")
	}
	checkNoRuntimeGoroutines(t)
}

// checkNoRuntimeGoroutines fails if gossip goroutines (node loops,
// transport senders, accept/read loops, daemon runners) outlive the
// drain. HTTP keep-alive and test goroutines are not counted.
func checkNoRuntimeGoroutines(t *testing.T) {
	t.Helper()
	markers := []string{
		"algossip/internal/runtime.(*",
		"algossip/internal/daemon.(*Daemon).Run",
		"algossip/internal/ctlhttp.(*Server).Serve",
	}
	deadline := time.Now().Add(5 * time.Second)
	var leaked []string
	for {
		leaked = leaked[:0]
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			for _, m := range markers {
				if strings.Contains(g, m) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d gossip goroutines leaked after drain:\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runSolo runs one daemon hosting every node of an n-ring (gossip ports
// are ephemeral: nothing is remote) and drains it when the test ends.
func runSolo(t *testing.T, n int, opts Options) *Daemon {
	t.Helper()
	opts.GraphName, opts.GraphN = "ring", n
	for v := 0; v < n; v++ {
		opts.Local = append(opts.Local, core.NodeID(v))
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-errCh; err != nil {
			t.Errorf("drain was not clean: %v", err)
		}
		checkNoRuntimeGoroutines(t)
	})
	return d
}

// quick is a client that fails a request a wedged daemon never answers.
var quick = http.Client{Timeout: 5 * time.Second}

// TestDaemonBadSeedLeavesNodeUsable: a seed whose payload has the wrong
// length used to panic inside rlnc with the node's mutex held; net/http
// recovered the panic and the node, /status and /metrics hung forever. It
// is a 400 now, and the daemon goes on serving.
func TestDaemonBadSeedLeavesNodeUsable(t *testing.T) {
	d := runSolo(t, 2, Options{K: 2, PayloadLen: 4, Q: 16, Interval: 2 * time.Millisecond})
	url := "http://" + d.ControlAddr()
	for _, body := range []string{
		`{"node":0,"index":0,"payload":"AQI="}`,     // two symbols, want four
		`{"node":0,"index":0,"payload":"AQIDBAU="}`, // five
		`{"node":0,"index":0,"payload":"AQIQBA=="}`, // 0x10 is no element of GF(16)
		`{"node":0,"index":2,"payload":"AQIDBA=="}`, // index out of range
	} {
		resp, err := quick.Post(url+"/seed", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /seed %s: %v", body, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /seed %s: %s, want 400", body, resp.Status)
		}
	}
	resp, err := quick.Get(url + "/status")
	if err != nil {
		t.Fatalf("GET /status after a bad seed: %v", err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || len(st.Nodes) != 2 {
		t.Fatalf("GET /status after a bad seed: %+v, %v", st, err)
	}
	_ = resp.Body.Close()
	post(t, d.ControlAddr(), "/seed", SeedRequest{Node: 0, Index: 0, Payload: []byte{1, 2, 3, 4}})
}

// counter sums the samples of one metric family in a Prometheus text body.
func counter(t *testing.T, text, name string) (sum uint64) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok && rest != "" && (rest[0] == ' ' || rest[0] == '{') {
			v, err := strconv.ParseUint(rest[strings.LastIndexByte(rest, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			sum += v
		}
	}
	return sum
}

// TestDaemonMetricsCountEveryDrop: algossip_drops_total used to be the
// chaos layer's partition cuts only — injected loss and full TCP queues
// were invisible. Every frame a node offers is now counted once, sent or
// dropped, whichever layer decided.
func TestDaemonMetricsCountEveryDrop(t *testing.T) {
	const n = 4
	d := runSolo(t, n, Options{K: 2, Interval: time.Millisecond, LossRate: 0.3, ChaosSeed: 9})
	ctl := d.ControlAddr()
	scrape := func() string {
		resp, err := quick.Get("http://" + ctl + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return buf.String()
	}
	// One of two messages seeded: the nodes gossip but never finish, so
	// Run still honours a kill.
	post(t, ctl, "/seed", SeedRequest{Node: 0, Index: 0})
	post(t, ctl, "/start", nil)
	for counter(t, scrape(), "algossip_node_rounds") < 400 {
		time.Sleep(5 * time.Millisecond)
	}
	// Stop every node, then let the TCP send queues run dry: the traffic
	// counters are final once two scrapes agree on them. (The process's
	// clock ticks on, so algossip_rounds_total does not settle.)
	for v := 0; v < n; v++ {
		post(t, ctl, "/kill", KillRequest{Node: v})
	}
	traffic := func(text string) [4]uint64 {
		var out [4]uint64
		for i, name := range []string{"algossip_sends_total", "algossip_drops_total", "algossip_peer_drops_total", "algossip_node_rounds"} {
			out[i] = counter(t, text, name)
		}
		return out
	}
	last := ""
	for text := scrape(); last == "" || traffic(text) != traffic(last); text = scrape() {
		last = text
		time.Sleep(20 * time.Millisecond)
	}
	sent, dropped := counter(t, last, "algossip_sends_total"), counter(t, last, "algossip_drops_total")
	offered := counter(t, last, "algossip_node_rounds") // one EXCHANGE opened per tick; replies come on top
	if dropped == 0 {
		t.Errorf("30%% injected loss, but algossip_drops_total is 0")
	}
	// A kill can land between a tick's count and its send: one frame of
	// slack per node.
	if sent+dropped+n < offered {
		t.Errorf("%d sent + %d dropped does not account for the %d frames offered", sent, dropped, offered)
	}
	if perPeer := counter(t, last, "algossip_peer_drops_total"); perPeer != dropped {
		t.Errorf("per-peer drops sum to %d, total says %d", perPeer, dropped)
	}
	// A lost frame never lands: its round ends on the deadline.
	if counter(t, last, `algossip_rounds_total{closed_by="deadline"}`) == 0 || counter(t, last, "algossip_frames_presumed_lost_total") == 0 {
		t.Errorf("30%% injected loss, but no round ended on the deadline with a frame presumed lost")
	}
}

// TestDaemonMetricsRoundClosure: a daemon hosting every node ends a round
// when its last frame lands, and /metrics says so; with an hour-long
// interval a lossless deployment converges on count alone. A daemon
// hosting part of the graph ends every round on its clock.
func TestDaemonMetricsRoundClosure(t *testing.T) {
	d := runSolo(t, 4, Options{K: 2, Interval: time.Hour})
	ctl := d.ControlAddr()
	for i := 0; i < 2; i++ {
		post(t, ctl, "/seed", SeedRequest{Node: i, Index: i})
	}
	post(t, ctl, "/start", nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		getJSON(t, ctl, "/status", &st)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("an all-local deployment never converged under an hour-long interval")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := quick.Get("http://" + ctl + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	text := buf.String()
	byCount := counter(t, text, `algossip_rounds_total{closed_by="count"}`)
	byDeadline := counter(t, text, `algossip_rounds_total{closed_by="deadline"}`)
	lost := counter(t, text, "algossip_frames_presumed_lost_total")
	if byCount == 0 || byDeadline != 0 || lost != 0 {
		t.Errorf("rounds by count %d, by deadline %d, frames presumed lost %d: want only count", byCount, byDeadline, lost)
	}
}

// TestPeersRefusedWhole: POST /peers declares a map whole or not at all.
// A body with one bad entry — an id outside the graph, a negative or
// non-numeric id, an address that is not host:port — or one that is not
// an object is a 400, and the route its good entry names is neither
// added nor moved: frames still go where the last accepted map sent
// them.
func TestPeersRefusedWhole(t *testing.T) {
	d, err := New(Options{
		Transport: "udp", Local: []core.NodeID{0, 1},
		GraphName: "ring", GraphN: 4, K: 2, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := d.Run(ctx); err != nil {
			t.Errorf("drain was not clean: %v", err)
		}
		checkNoRuntimeGoroutines(t)
	})
	declare := func(body string) int {
		rec := httptest.NewRecorder()
		d.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/peers", strings.NewReader(body)))
		return rec.Code
	}
	listen := func() net.PacketConn {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = pc.Close() })
		return pc
	}
	// arrives reports whether a frame sent to node 2 lands on pc.
	buf := make([]byte, 1<<16)
	arrives := func(pc net.PacketConn, wait time.Duration) bool {
		_ = pc.SetReadDeadline(time.Now().Add(wait))
		_, _, err := pc.ReadFrom(buf)
		return err == nil
	}
	send := func() error { return d.base.Send(context.Background(), 2, rt.Envelope{From: 1}) }
	refused := func(addr string) {
		t.Helper()
		for _, tmpl := range []string{
			`{"2":"%s","4":"127.0.0.1:9004"}`, `{"2":"%s","-1":"127.0.0.1:9000"}`,
			`{"2":"%s","zero":"127.0.0.1:9000"}`, `{"2":"%s","3":""}`,
			`{"2":"%s","3":"127.0.0.1"}`, `{"2":"%s","3":"127.0.0.1:"}`, `[{"2":"%s"}]`,
		} {
			if body := fmt.Sprintf(tmpl, addr); declare(body) != http.StatusBadRequest {
				t.Errorf("POST /peers %s was not refused", body)
			}
		}
	}

	first, second := listen(), listen()
	refused(first.LocalAddr().String())
	if err := send(); !errors.Is(err, rt.ErrUnknownNode) {
		t.Fatalf("a refused body declared node 2: send says %v", err)
	}
	if code := declare(fmt.Sprintf(`{"2":%q,"3":"127.0.0.1:9"}`, first.LocalAddr())); code != http.StatusOK {
		t.Fatalf("a valid peer map answered %d", code)
	}
	if err := send(); err != nil || !arrives(first, 5*time.Second) {
		t.Fatalf("a frame to node 2 missed its declared address (send: %v)", err)
	}
	refused(second.LocalAddr().String())
	if err := send(); err != nil || !arrives(first, 5*time.Second) || arrives(second, 100*time.Millisecond) {
		t.Fatalf("a refused body moved node 2's route (send: %v)", err)
	}
}

// TestParseListsRefuseMalformed: an id with anything after its digits
// used to parse as its leading digits, and a repeated peer id kept its
// last address; both are refused now.
func TestParseListsRefuseMalformed(t *testing.T) {
	if got, err := ParseNodeList(" 0, 3 ,17"); err != nil || !reflect.DeepEqual(got, []core.NodeID{0, 3, 17}) {
		t.Errorf("ParseNodeList(\" 0, 3 ,17\") = %v, %v", got, err)
	}
	for _, s := range []string{"0,1x,2.5", "1x", "2.5", "0,,1", "-1", ""} {
		if got, err := ParseNodeList(s); err == nil {
			t.Errorf("ParseNodeList(%q) = %v, accepted", s, got)
		}
	}
	if got, err := ParsePeerMap("0=127.0.0.1:1, 1=127.0.0.1:2"); err != nil || len(got) != 2 || got[1] != "127.0.0.1:2" {
		t.Errorf("ParsePeerMap of two peers = %v, %v", got, err)
	}
	for _, s := range []string{"0=127.0.0.1:1,0=127.0.0.1:2", "0", "x=127.0.0.1:1"} {
		if got, err := ParsePeerMap(s); err == nil {
			t.Errorf("ParsePeerMap(%q) = %v, accepted", s, got)
		}
	}
}
