// Package daemon is the long-running network-runtime process behind
// cmd/gossipd: it hosts a subset of a gossip cluster's nodes over a real
// (TCP or UDP) transport and exposes an HTTP control plane — health,
// Prometheus-text metrics, peer declaration, seeding, start gating,
// topology swaps, kill injection, and graceful drain. A multi-process
// deployment is N daemons with disjoint Local sets; a controller
// (internal/livectl, cmd/gossipctl) reads each one's gossip addresses
// from GET /status, declares them all to every daemon with POST /peers,
// then drives them over HTTP.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"algossip/internal/core"
	"algossip/internal/ctlhttp"
	"algossip/internal/gf"
	"algossip/internal/gf/cpufeat"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
	"algossip/internal/runtime"
)

// Options configures one daemon process, and is the one declaration of a
// deployment: gossipd binds it to its command line, gossipctl and livectl
// bind the same words and render each child's argv from them. The
// graph-shaped fields must be identical across every process of a
// deployment (each process rebuilds the same topology from the same
// family, size and seed). Zero Q and Interval pick the runtime's defaults.
type Options struct {
	// HTTPAddr is the control/metrics listen address; empty, the default,
	// picks an ephemeral loopback port (read it back from ControlAddr).
	HTTPAddr string
	// Transport picks the wire transport: "tcp" (also "", the default) or
	// "udp".
	Transport string
	// Local are the graph nodes hosted by this process.
	Local []core.NodeID
	// Peers, optional, maps nodes to gossip addresses: a remote node is
	// sent to its entry, and the process's one gossip socket binds the
	// entry of its local nodes, which must all name one address (or none:
	// an ephemeral loopback port). POST /peers declares more later.
	Peers map[core.NodeID]string
	// GraphName, GraphN and GraphSeed rebuild the shared topology via
	// graph.FromName (GraphSeed feeds the rng of random families).
	GraphName string
	GraphN    int
	GraphSeed uint64
	// K is the number of initial messages; Q the field order.
	K int
	Q int
	// PayloadLen is symbols per message (0 = rank-only).
	PayloadLen int
	// GenSize, when positive, enables generation coding.
	GenSize int
	// Interval is the cluster's clock: the round period of a process
	// hosting part of the graph, the loss deadline of one hosting all of
	// it (see runtime.Config.Interval).
	Interval time.Duration
	// Seed roots the deployment's protocol randomness (shared by all
	// processes; per-node streams are split from it).
	Seed uint64
	// LossRate/ChaosLatency/ChaosJitter/ChaosCorrupt set the initial
	// degradation of the fault layer (see runtime.ChaosTransport), all
	// drawn from one stream seeded by ChaosSeed. The layer itself is always
	// present — with all knobs zero it is a transparent pass-through — so
	// POST /chaos can degrade a healthy deployment mid-run.
	LossRate     float64
	ChaosLatency time.Duration
	ChaosJitter  time.Duration
	ChaosCorrupt float64
	ChaosSeed    uint64
}

// BindFlags registers the words every process of a deployment shares, one
// flag per field, parsed straight into the field with its current value as
// the default. A binary fills an Options with its own defaults, binds it,
// and declares only its process-local flags itself (gossipd: -http,
// -nodes, -peers; gossipctl run: -procs, -timeout, ...).
// livectl renders a child's command line by visiting the same binding, so
// a word added here reaches every gossipd a controller spawns.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Transport, "transport", o.Transport, "gossip transport: tcp (the default) or udp")
	fs.StringVar(&o.GraphName, "graph", o.GraphName, "topology family (see graph.FromName)")
	fs.IntVar(&o.GraphN, "n", o.GraphN, "topology node count")
	fs.Uint64Var(&o.GraphSeed, "graph-seed", o.GraphSeed, "rng seed for random topology families")
	fs.IntVar(&o.K, "k", o.K, "number of initial messages")
	fs.IntVar(&o.Q, "q", o.Q, "field order (0 = the runtime's default field)")
	fs.IntVar(&o.PayloadLen, "payload", o.PayloadLen, "payload symbols per message (0 = rank-only)")
	fs.IntVar(&o.GenSize, "gen", o.GenSize, "generation size (0 = classic whole-k coding)")
	fs.DurationVar(&o.Interval, "interval", o.Interval, "round period, or loss deadline when one process hosts every node (0 = the runtime's default)")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "protocol randomness seed (shared across processes)")
	fs.Float64Var(&o.LossRate, "loss", o.LossRate, "injected i.i.d. packet-loss probability")
	fs.DurationVar(&o.ChaosLatency, "chaos-latency", o.ChaosLatency, "injected per-frame delivery latency")
	fs.DurationVar(&o.ChaosJitter, "chaos-jitter", o.ChaosJitter, "extra uniform random latency in [0, jitter)")
	fs.Float64Var(&o.ChaosCorrupt, "chaos-corrupt", o.ChaosCorrupt, "probability of structurally corrupting each outbound frame (1 = Byzantine process)")
	fs.Uint64Var(&o.ChaosSeed, "chaos-seed", o.ChaosSeed, "fault injection seed (loss, jitter, corruption)")
}

// socketTransport is what the daemon needs of its wire transport beyond
// runtime.Transport: the routing table every transport embeds.
type socketTransport interface {
	runtime.Transport
	SetPeers(peers map[core.NodeID]string)
	Addr(id core.NodeID) (string, bool)
}

// newTransport builds the named wire transport.
func newTransport(name string) (socketTransport, error) {
	switch name {
	case "", "tcp":
		return runtime.NewTCPTransport(), nil
	case "udp":
		return runtime.NewUDPTransport()
	}
	return nil, fmt.Errorf("unknown transport %q (tcp or udp)", name)
}

// Daemon hosts a cluster slice plus its HTTP control plane.
type Daemon struct {
	graph   *graph.Graph
	base    socketTransport         // the raw socket transport (gossip addresses)
	chaos   *runtime.ChaosTransport // base behind the fault layer: what the cluster sends through
	cluster *runtime.Cluster
	ctl     *ctlhttp.Server // the control plane; POST /drain stops it
}

// New validates the options and builds the transport, cluster and control
// mux. The gossip and HTTP listeners are bound here, so peers can connect
// as soon as New returns; gossiping starts when Run (and then Start, or
// POST /start) is called.
func New(opts Options) (*Daemon, error) {
	g, err := graph.FromName(opts.GraphName, opts.GraphN, core.NewRand(opts.GraphSeed))
	if err != nil {
		return nil, fmt.Errorf("daemon: graph: %w", err)
	}
	if err := checkPeers(opts.Peers, g.N()); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	base, err := newTransport(opts.Transport)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	base.SetPeers(opts.Peers)
	// The fault layer wraps unconditionally: with zero knobs it is
	// transparent, and its presence is what makes POST /chaos able to
	// degrade (and heal) a live deployment without a restart.
	chaos, err := runtime.NewChaosTransport(base, runtime.ChaosConfig{
		DropRate:    opts.LossRate,
		Latency:     opts.ChaosLatency,
		Jitter:      opts.ChaosJitter,
		CorruptRate: opts.ChaosCorrupt,
		Seed:        opts.ChaosSeed,
	})
	if err != nil {
		_ = base.Close()
		return nil, fmt.Errorf("daemon: %w", err)
	}

	clusterOpts := []runtime.Option{
		runtime.WithSeed(opts.Seed),
		runtime.WithLocalNodes(opts.Local...),
		runtime.WithControlPlane(),
		runtime.WithPayload(opts.PayloadLen),
		runtime.WithGenerations(opts.GenSize),
		runtime.WithInterval(opts.Interval),
	}
	if opts.Q != 0 {
		field, err := gf.New(opts.Q)
		if err != nil {
			_ = chaos.Close()
			return nil, fmt.Errorf("daemon: field: %w", err)
		}
		clusterOpts = append(clusterOpts, runtime.WithField(field))
	}
	cluster, err := runtime.NewCluster(chaos, g, opts.K, clusterOpts...)
	if err != nil {
		_ = chaos.Close()
		return nil, fmt.Errorf("daemon: cluster: %w", err)
	}

	d := &Daemon{graph: g, base: base, chaos: chaos, cluster: cluster}
	if d.ctl, err = ctlhttp.Listen(opts.HTTPAddr, d.mux()); err != nil {
		_ = chaos.Close()
		return nil, fmt.Errorf("daemon: control listen: %w", err)
	}
	return d, nil
}

// ControlAddr is the bound HTTP control address.
func (d *Daemon) ControlAddr() string { return d.ctl.Addr() }

// Run serves gossip and the control plane until ctx is cancelled or a
// drain is requested, then shuts both down. Interruption by ctx or drain
// is the intended shutdown path and returns nil — convergence state at
// that moment is observable via Status, not the error.
func (d *Daemon) Run(ctx context.Context) error {
	// A cluster built WithControlPlane runs until runCtx ends.
	runCtx, cancel := context.WithCancel(context.Background())
	clusterDone := make(chan struct{})
	go func() {
		defer close(clusterDone)
		_, _ = d.cluster.Run(runCtx)
	}()

	// Drain: the control plane first, so requests in flight are answered
	// by live nodes, then the node goroutines, then the sockets. The
	// cluster's "interrupted" error is the normal drain path, not a
	// failure.
	err := d.ctl.Serve(ctx, 0)
	if err != nil {
		err = fmt.Errorf("daemon: control plane: %w", err)
	}
	cancel()
	<-clusterDone
	if cerr := d.chaos.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("daemon: transport close: %w", cerr)
	}
	return err
}

// The control-plane schema: one struct per route body, shared by this
// server and its clients (internal/livectl, cmd/gossipctl).

// NodeStatus is one local node's progress, as GET /status reports it.
type NodeStatus = runtime.NodeStatus

// StatusResponse is the GET /status response.
type StatusResponse struct {
	Nodes []NodeStatus `json:"nodes"`
	// Done reports every local node at full rank.
	Done bool `json:"done"`
	// GFTier is the active kernel dispatch tier plus detected CPU
	// features ("gfni (avx2 gfni ssse3)"), so a fleet operator can audit
	// which kernel level each box actually runs.
	GFTier string `json:"gf_tier"`
	// Gossip is the address each local node is reached at — the process's
	// one gossip socket, the same for every local node: what a controller
	// declares to the other processes with POST /peers.
	Gossip Peers `json:"gossip"`
}

func (d *Daemon) statusSnapshot() StatusResponse {
	out := StatusResponse{Nodes: d.cluster.Status(), Done: true, GFTier: gf.TierInfo(), Gossip: Peers{}}
	for _, s := range out.Nodes {
		out.Done = out.Done && s.Done
		out.Gossip[s.ID], _ = d.base.Addr(s.ID)
	}
	return out
}

// Peers maps nodes to gossip addresses, {"node": "host:port"} on the wire.
type Peers = map[core.NodeID]string

// checkPeers refuses a peer map naming a node outside [0, n) or an
// address that is not host:port: a map is declared whole or not at all.
func checkPeers(peers Peers, n int) error {
	for v, addr := range peers {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("peer node %d outside [0,%d)", v, n)
		}
		if _, port, err := net.SplitHostPort(addr); err != nil || port == "" {
			return fmt.Errorf("peer node %d: address %q is not host:port", v, addr)
		}
	}
	return nil
}

// SeedRequest is the POST /seed body. Payload is the message's symbols
// (base64 on the wire, as encoding/json writes bytes; empty in rank-only
// mode).
type SeedRequest struct {
	Node    int    `json:"node"`
	Index   int    `json:"index"`
	Payload []byte `json:"payload,omitempty"`
}

// TopologyRequest is the POST /topology body; the new graph must have the
// same node count and be built identically by every process.
type TopologyRequest struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	Seed   uint64 `json:"seed"`
}

// KillRequest is the POST /kill body.
type KillRequest struct {
	Node int `json:"node"`
}

// ChaosRequest is the POST /chaos body. Every field is optional; only the
// fields present change state, so a controller can partition without
// touching the latency profile and vice versa (and an empty request just
// reads the state back). Heal applies first, which makes
// {"heal":true,"latency_ms":5} a single-request "lift the partition but
// keep the link slow".
type ChaosRequest struct {
	LatencyMS   *float64 `json:"latency_ms,omitempty"`
	JitterMS    *float64 `json:"jitter_ms,omitempty"`
	CorruptRate *float64 `json:"corrupt_rate,omitempty"`
	Partition   []int    `json:"partition,omitempty"`
	Heal        bool     `json:"heal,omitempty"`
}

// ChaosState is the GET /chaos (and POST /chaos) response.
type ChaosState struct {
	LatencyMS   float64 `json:"latency_ms"`
	JitterMS    float64 `json:"jitter_ms"`
	CorruptRate float64 `json:"corrupt_rate"`
	Partition   []int   `json:"partition"`
	Cut         uint64  `json:"cut"`
	Corrupted   uint64  `json:"corrupted"`
}

func (d *Daemon) chaosSnapshot() ChaosState {
	base, jitter := d.chaos.Latency()
	st := ChaosState{
		LatencyMS:   float64(base) / float64(time.Millisecond),
		JitterMS:    float64(jitter) / float64(time.Millisecond),
		CorruptRate: d.chaos.CorruptRate(),
		Partition:   []int{},
		Cut:         d.chaos.Cut(),
		Corrupted:   d.chaos.Corrupted(),
	}
	for _, id := range d.chaos.Partitioned() {
		st.Partition = append(st.Partition, int(id))
	}
	return st
}

// applyChaos mutates the chaos layer per one request.
func (d *Daemon) applyChaos(req ChaosRequest) error {
	if req.Heal {
		d.chaos.Heal()
	}
	if req.LatencyMS != nil || req.JitterMS != nil {
		base, jitter := d.chaos.Latency()
		if req.LatencyMS != nil {
			base = time.Duration(*req.LatencyMS * float64(time.Millisecond))
		}
		if req.JitterMS != nil {
			jitter = time.Duration(*req.JitterMS * float64(time.Millisecond))
		}
		if err := d.chaos.SetLatency(base, jitter); err != nil {
			return err
		}
	}
	if req.CorruptRate != nil {
		if err := d.chaos.SetCorruptRate(*req.CorruptRate); err != nil {
			return err
		}
	}
	if len(req.Partition) > 0 {
		nodes := make([]core.NodeID, 0, len(req.Partition))
		for _, id := range req.Partition {
			if id < 0 || id >= d.graph.N() {
				return fmt.Errorf("partition node %d outside [0,%d)", id, d.graph.N())
			}
			nodes = append(nodes, core.NodeID(id))
		}
		d.chaos.SetPartition(nodes)
	}
	return nil
}

func (d *Daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	ctlhttp.HandleBare(mux, "GET /healthz", "ok", func() (any, error) { return nil, nil })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		d.writeMetrics(w)
	})
	ctlhttp.HandleBare(mux, "GET /status", "", func() (any, error) { return d.statusSnapshot(), nil })
	ctlhttp.HandleBare(mux, "GET /chaos", "", func() (any, error) { return d.chaosSnapshot(), nil })
	ctlhttp.Handle(mux, "POST /seed", "seeded", func(req SeedRequest) (any, error) {
		return nil, d.cluster.Seed(core.NodeID(req.Node), rlnc.Message{Index: req.Index, Payload: req.Payload})
	})
	ctlhttp.Handle(mux, "POST /topology", "applied", func(req TopologyRequest) (any, error) {
		// No family realizes more than twice the size it is asked for,
		// so a larger one cannot fit — and is not worth building to see.
		if n := d.graph.N(); req.N > 2*n+4 {
			return nil, fmt.Errorf("topology of %d nodes for a deployment of %d", req.N, n)
		}
		g, err := graph.FromName(req.Family, req.N, core.NewRand(req.Seed))
		if err != nil {
			return nil, err
		}
		return nil, d.cluster.ApplyTopology(g)
	})
	ctlhttp.Handle(mux, "POST /peers", "declared", func(req Peers) (any, error) {
		if err := checkPeers(req, d.graph.N()); err != nil {
			return nil, err
		}
		d.base.SetPeers(req)
		return nil, nil
	})
	ctlhttp.Handle(mux, "POST /kill", "killed", func(req KillRequest) (any, error) {
		return nil, d.cluster.Kill(core.NodeID(req.Node))
	})
	ctlhttp.Handle(mux, "POST /chaos", "", func(req ChaosRequest) (any, error) {
		if err := d.applyChaos(req); err != nil {
			return nil, err
		}
		return d.chaosSnapshot(), nil
	})
	ctlhttp.HandleBare(mux, "POST /start", "started", func() (any, error) {
		d.cluster.Start()
		return nil, nil
	})
	ctlhttp.HandleBare(mux, "POST /drain", "draining", func() (any, error) {
		d.ctl.Stop()
		return nil, nil
	})
	return mux
}

// writeMetrics renders the Prometheus text exposition: transport counters
// (sends, drops, redials — totals and per destination), per-node protocol
// progress (rank, done, ticks — one round each) and how rounds ended.
func (d *Daemon) writeMetrics(w http.ResponseWriter) {
	s := d.chaos.Stats()
	fmt.Fprintln(w, "# HELP algossip_sends_total Envelopes handed to the medium.")
	fmt.Fprintln(w, "# TYPE algossip_sends_total counter")
	fmt.Fprintf(w, "algossip_sends_total %d\n", s.Total.Sent)
	fmt.Fprintln(w, "# HELP algossip_drops_total Envelopes dropped (backpressure, injected loss, partition cuts, dead peers).")
	fmt.Fprintln(w, "# TYPE algossip_drops_total counter")
	fmt.Fprintf(w, "algossip_drops_total %d\n", s.Total.Dropped)
	fmt.Fprintln(w, "# HELP algossip_redials_total Connection re-establishment attempts.")
	fmt.Fprintln(w, "# TYPE algossip_redials_total counter")
	fmt.Fprintf(w, "algossip_redials_total %d\n", s.Total.Redials)
	fmt.Fprintln(w, "# HELP algossip_chaos_cut_total Envelopes dropped by injected partitions.")
	fmt.Fprintln(w, "# TYPE algossip_chaos_cut_total counter")
	fmt.Fprintf(w, "algossip_chaos_cut_total %d\n", d.chaos.Cut())
	fmt.Fprintln(w, "# HELP algossip_chaos_corrupt_total Envelopes structurally corrupted by injection.")
	fmt.Fprintln(w, "# TYPE algossip_chaos_corrupt_total counter")
	fmt.Fprintf(w, "algossip_chaos_corrupt_total %d\n", d.chaos.Corrupted())
	fmt.Fprintln(w, "# HELP algossip_gf_tier_info Active GF kernel dispatch tier (labels carry the values).")
	fmt.Fprintln(w, "# TYPE algossip_gf_tier_info gauge")
	fmt.Fprintf(w, "algossip_gf_tier_info{tier=%q,cpu=%q} 1\n", gf.ActiveTier(), cpufeat.Summary())

	ids := make([]core.NodeID, 0, len(s.PerNode))
	for id := range s.PerNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintln(w, "# HELP algossip_peer_sends_total Envelopes sent toward one destination.")
	fmt.Fprintln(w, "# TYPE algossip_peer_sends_total counter")
	for _, id := range ids {
		fmt.Fprintf(w, "algossip_peer_sends_total{peer=%q} %d\n", fmt.Sprint(id), s.PerNode[id].Sent)
	}
	fmt.Fprintln(w, "# HELP algossip_peer_drops_total Envelopes dropped toward one destination.")
	fmt.Fprintln(w, "# TYPE algossip_peer_drops_total counter")
	for _, id := range ids {
		fmt.Fprintf(w, "algossip_peer_drops_total{peer=%q} %d\n", fmt.Sprint(id), s.PerNode[id].Dropped)
	}
	fmt.Fprintln(w, "# HELP algossip_peer_redials_total Redials toward one destination.")
	fmt.Fprintln(w, "# TYPE algossip_peer_redials_total counter")
	for _, id := range ids {
		fmt.Fprintf(w, "algossip_peer_redials_total{peer=%q} %d\n", fmt.Sprint(id), s.PerNode[id].Redials)
	}

	st := d.cluster.Status()
	fmt.Fprintln(w, "# HELP algossip_node_rank Current decoder rank of a local node.")
	fmt.Fprintln(w, "# TYPE algossip_node_rank gauge")
	for _, n := range st {
		fmt.Fprintf(w, "algossip_node_rank{node=%q} %d\n", fmt.Sprint(n.ID), n.Rank)
	}
	fmt.Fprintln(w, "# HELP algossip_node_done Whether a local node reached full rank.")
	fmt.Fprintln(w, "# TYPE algossip_node_done gauge")
	for _, n := range st {
		done := 0
		if n.Done {
			done = 1
		}
		fmt.Fprintf(w, "algossip_node_done{node=%q} %d\n", fmt.Sprint(n.ID), done)
	}
	fmt.Fprintln(w, "# HELP algossip_node_rounds Synchronous rounds a local node took part in (one tick is one round).")
	fmt.Fprintln(w, "# TYPE algossip_node_rounds counter")
	for _, n := range st {
		fmt.Fprintf(w, "algossip_node_rounds{node=%q} %d\n", fmt.Sprint(n.ID), n.Ticks)
	}

	rs := d.cluster.Rounds()
	fmt.Fprintln(w, "# HELP algossip_rounds_total Rounds this process ended: by count when the round's last frame landed (a process hosting the whole graph), else by the deadline of its clock.")
	fmt.Fprintln(w, "# TYPE algossip_rounds_total counter")
	fmt.Fprintf(w, "algossip_rounds_total{closed_by=\"count\"} %d\n", rs.ByCount)
	fmt.Fprintf(w, "algossip_rounds_total{closed_by=\"deadline\"} %d\n", rs.ByDeadline)
	fmt.Fprintln(w, "# HELP algossip_frames_presumed_lost_total Frames still in flight when the deadline ended their round (a process hosting the whole graph only).")
	fmt.Fprintln(w, "# TYPE algossip_frames_presumed_lost_total counter")
	fmt.Fprintf(w, "algossip_frames_presumed_lost_total %d\n", rs.PresumedLost)
}

// ParseNodeList parses "0,3,17" into node ids.
func ParseNodeList(s string) ([]core.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("daemon: empty node list")
	}
	var out []core.NodeID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 {
			return nil, fmt.Errorf("daemon: bad node id %q", part)
		}
		out = append(out, core.NodeID(id))
	}
	return out, nil
}

// ParsePeerMap parses "0=127.0.0.1:9000,1=127.0.0.1:9001" into the peer
// address map, refusing an id given twice; New checks the ids and
// addresses.
func ParsePeerMap(s string) (map[core.NodeID]string, error) {
	out := make(map[core.NodeID]string)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		v, err := strconv.Atoi(id)
		if !ok || err != nil {
			return nil, fmt.Errorf("daemon: bad peer entry %q (want id=addr)", part)
		}
		if _, dup := out[core.NodeID(v)]; dup {
			return nil, fmt.Errorf("daemon: peer %d given twice", v)
		}
		out[core.NodeID(v)] = addr
	}
	return out, nil
}
