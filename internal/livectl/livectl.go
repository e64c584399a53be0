// Package livectl orchestrates multi-process gossipd deployments over
// their HTTP control planes: it builds the daemon binary, spawns N
// processes hosting disjoint slices of one topology, tells each where
// every other node's gossip socket is, seeds messages, releases the start
// gate, polls for convergence, and drains everything cleanly. It is the
// engine behind cmd/gossipctl and experiment E17 (live cluster vs
// simulator prediction).
package livectl

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/ctlhttp"
	"algossip/internal/daemon"
	"algossip/internal/graph"
)

// Options configures a deployment: the daemon options every process
// shares, plus how to spawn them. Launch fills the per-process fields
// itself — Local from the node split, ChaosSeed split per process — and
// leaves HTTPAddr and Peers at gossipd's defaults: every gossip address
// is learned (see Launch). The zero value is not runnable: Procs,
// GraphName, GraphN and K are required.
type Options struct {
	daemon.Options
	// Bin is the gossipd binary; empty builds it into a temp dir first.
	Bin string
	// Procs is the number of daemon processes; the topology's nodes are
	// split across them in contiguous blocks.
	Procs int
	// ByzantineProcs launches the LAST this-many processes with
	// -chaos-corrupt 1: every frame they send is structurally corrupt and
	// dies at the receiver's screens, the live-deployment twin of the
	// simulator's polluting adversary. Their nodes still receive honestly
	// (inbound is untouched), so a Byzantine-hosted node with an honest
	// neighbour completes too — but one whose neighbours all sit on
	// Byzantine processes never hears a usable frame. The honest nodes
	// converge as long as every message is seeded at an honest process
	// (SeedRoundRobin does this automatically) and the honest nodes stay
	// connected through honest nodes; WaitConverged waits for them alone.
	ByzantineProcs int
	// Stderr receives every daemon's stderr (default os.Stderr).
	Stderr io.Writer
}

// Cluster is a multi-process deployment under control: spawned by Launch,
// or already running and joined by Attach.
type Cluster struct {
	n      int
	k      int
	procs  []*proc
	home   map[core.NodeID]int
	client http.Client
	tmpDir string // owned build dir, removed on Stop
}

type proc struct {
	ctl    string     // control-plane base address host:port
	byz    bool       // corrupts every outbound frame
	cmd    *exec.Cmd  // nil for an attached process
	waitCh chan error // cmd's exit status
}

// BuildGossipd compiles cmd/gossipd into dir and returns the binary path.
// The working directory must be inside the module.
func BuildGossipd(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "gossipd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "algossip/cmd/gossipd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("livectl: build gossipd: %w\n%s", err, out)
	}
	return bin, nil
}

// Launch builds (if needed) and spawns the deployment, then declares
// every node's gossip address to every process. On success the processes
// are running, their control planes answer and they can reach each
// other: the cluster is ready to seed. Call Stop (usually deferred) to
// tear everything down.
func Launch(ctx context.Context, opts Options) (*Cluster, error) {
	if opts.Procs < 1 {
		return nil, fmt.Errorf("livectl: need at least 1 process, got %d", opts.Procs)
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	stderr := &sharedWriter{w: opts.Stderr}
	// Build the topology locally to learn the realized node count (some
	// families round the requested size).
	g, err := graph.FromName(opts.GraphName, opts.GraphN, core.NewRand(opts.GraphSeed))
	if err != nil {
		return nil, fmt.Errorf("livectl: %w", err)
	}
	n := g.N()
	if opts.Procs > n {
		return nil, fmt.Errorf("livectl: %d processes for %d nodes", opts.Procs, n)
	}
	if opts.ByzantineProcs < 0 || opts.ByzantineProcs >= opts.Procs {
		return nil, fmt.Errorf("livectl: %d Byzantine of %d processes (need at least one honest)",
			opts.ByzantineProcs, opts.Procs)
	}

	c := &Cluster{}
	bin := opts.Bin
	if bin == "" {
		dir, err := os.MkdirTemp("", "livectl-*")
		if err != nil {
			return nil, fmt.Errorf("livectl: %w", err)
		}
		c.tmpDir = dir
		if bin, err = BuildGossipd(ctx, dir); err != nil {
			c.Stop()
			return nil, err
		}
	}

	child := opts.Options
	for p := 0; p < opts.Procs; p++ {
		lo, hi := p*n/opts.Procs, (p+1)*n/opts.Procs
		child.Local = make([]core.NodeID, hi-lo)
		for i := range child.Local {
			child.Local[i] = core.NodeID(lo + i)
		}
		// Each process draws its faults from its own stream, so two
		// processes never drop or corrupt in lockstep.
		child.ChaosSeed = core.SplitSeed(core.SplitSeed(opts.Seed, opts.ChaosSeed), uint64(p))
		if p >= opts.Procs-opts.ByzantineProcs {
			child.ChaosCorrupt = 1
		}
		pr, err := spawn(ctx, bin, childArgs(child), stderr)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("livectl: gossipd %d: %w", p, err)
		}
		c.procs = append(c.procs, pr)
	}
	if err := c.join(ctx); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// join attaches to freshly spawned processes and declares to each the
// gossip address every node of the deployment bound (a daemon refuses a
// map with a node left unbound in it).
func (c *Cluster) join(ctx context.Context) error {
	peers, err := c.attach(ctx)
	if err != nil {
		return err
	}
	return c.each(ctx, "/peers", peers)
}

// sharedWriter serialises every child's stderr copier onto the one writer
// the caller gave: os/exec runs a copier per process.
type sharedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *sharedWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// childArgs renders one gossipd command line from its Options: every
// shared word as BindFlags declares it, then -nodes (-http stays at
// gossipd's default, an ephemeral port, and so does every gossip socket).
func childArgs(o daemon.Options) []string {
	fs := flag.NewFlagSet("gossipd", flag.ContinueOnError)
	o.BindFlags(fs)
	var args []string
	fs.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	nodes := make([]string, len(o.Local))
	for i, v := range o.Local {
		nodes[i] = fmt.Sprint(v)
	}
	return append(args, "-nodes="+strings.Join(nodes, ","))
}

// spawn starts one gossipd and waits for the stdout line announcing its
// control address; a process that never announces one is killed.
func spawn(ctx context.Context, bin string, args []string, stderr io.Writer) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	pr := &proc{cmd: cmd, waitCh: make(chan error, 1)}
	ctlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := parseControlLine(sc.Text()); ok {
				select {
				case ctlCh <- a:
				default:
				}
			}
		}
	}()
	go func() { pr.waitCh <- cmd.Wait() }()

	select {
	case pr.ctl = <-ctlCh:
		return pr, nil
	case err = <-pr.waitCh:
		return nil, fmt.Errorf("exited before announcing its control address: %v", err)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("never announced its control address")
	case <-ctx.Done():
		err = ctx.Err()
	}
	_ = cmd.Process.Kill()
	<-pr.waitCh
	return nil, err
}

func parseControlLine(line string) (string, bool) {
	const marker = "control http://"
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, true
}

// Attach joins a deployment that is already running, given every
// process's control address: it learns the node placement, k, and which
// processes are Byzantine (corrupt every frame) from the control planes
// themselves. Drain on an attached cluster asks the processes to exit but
// cannot wait for them.
func Attach(ctx context.Context, ctl ...string) (*Cluster, error) {
	c := &Cluster{}
	for _, a := range ctl {
		c.procs = append(c.procs, &proc{ctl: a})
	}
	_, err := c.attach(ctx)
	return c, err
}

// attach fills the cluster's picture of the deployment from its
// processes' status and chaos state (an empty chaos request only reads),
// and returns the gossip address each process reports for its nodes.
func (c *Cluster) attach(ctx context.Context) (daemon.Peers, error) {
	c.client.Timeout = 10 * time.Second
	status, err := c.Status(ctx)
	if err != nil {
		return nil, err
	}
	chaos, err := c.Chaos(ctx, daemon.ChaosRequest{})
	if err != nil {
		return nil, err
	}
	c.home = make(map[core.NodeID]int)
	peers := make(daemon.Peers)
	for i, p := range c.procs {
		p.byz = chaos[i].CorruptRate >= 1
		for _, node := range status[i].Nodes {
			c.home[node.ID], c.k = i, node.K
		}
		for v, addr := range status[i].Gossip {
			peers[v] = addr
		}
	}
	c.n = len(c.home)
	return peers, nil
}

// N is the realized node count; Procs the process count.
func (c *Cluster) N() int     { return c.n }
func (c *Cluster) Procs() int { return len(c.procs) }

// do is the control-plane client: one request to one process, the body
// (when in is non-nil) and the reply (when out is) as JSON. Any status
// but 200 is an error carrying the daemon's reason.
func (c *Cluster) do(ctx context.Context, method, ctl, path string, in, out any) error {
	err := ctlhttp.Client{Base: "http://" + ctl, HTTP: &c.client}.Do(ctx, method, path, in, out)
	if ctlhttp.IsStatus(err) {
		return fmt.Errorf("livectl: %s %s on %s: %w", method, path, ctl, err)
	}
	return err
}

// each posts one body to every process.
func (c *Cluster) each(ctx context.Context, path string, in any) error {
	for _, p := range c.procs {
		if err := c.do(ctx, http.MethodPost, p.ctl, path, in, nil); err != nil {
			return err
		}
	}
	return nil
}

// gather sends one request to every process and collects the JSON
// replies, in process order.
func gather[T any](ctx context.Context, c *Cluster, method, path string, in any) ([]T, error) {
	all := make([]T, len(c.procs))
	for i, p := range c.procs {
		if err := c.do(ctx, method, p.ctl, path, in, &all[i]); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// at posts one body to node v's home process.
func (c *Cluster) at(ctx context.Context, v core.NodeID, path string, in any) error {
	p, ok := c.home[v]
	if !ok {
		return fmt.Errorf("livectl: node %d not in deployment", v)
	}
	return c.do(ctx, http.MethodPost, c.procs[p].ctl, path, in, nil)
}

// Seed places message index at node v (payload nil in rank-only mode).
func (c *Cluster) Seed(ctx context.Context, v core.NodeID, index int, payload []byte) error {
	return c.at(ctx, v, "/seed", daemon.SeedRequest{Node: int(v), Index: index, Payload: payload})
}

// HonestNodes lists the nodes hosted by non-Byzantine processes, in id
// order (all nodes when no process is Byzantine).
func (c *Cluster) HonestNodes() []core.NodeID {
	out := make([]core.NodeID, 0, c.n)
	for v := 0; v < c.n; v++ {
		if !c.procs[c.home[core.NodeID(v)]].byz {
			out = append(out, core.NodeID(v))
		}
	}
	return out
}

// SeedRoundRobin seeds message i at node i mod n — the paper's default
// assignment and the simulator's RoundRobinAssign. With Byzantine
// processes in the deployment, the round-robin runs over honest nodes
// only (the simulator's RoundRobinAssignOver): a message seeded behind a
// corrupting sender could never escape, making convergence impossible.
func (c *Cluster) SeedRoundRobin(ctx context.Context, payloads [][]byte) error {
	honest := c.HonestNodes()
	if len(honest) == 0 {
		return fmt.Errorf("livectl: no honest nodes to seed")
	}
	for i := 0; i < c.k; i++ {
		var pl []byte
		if payloads != nil {
			pl = payloads[i]
		}
		if err := c.Seed(ctx, honest[i%len(honest)], i, pl); err != nil {
			return err
		}
	}
	return nil
}

// Start releases every process's start gate; gossiping (and tick
// counting) begins now, after all seeding finished.
func (c *Cluster) Start(ctx context.Context) error { return c.each(ctx, "/start", nil) }

// Status fetches every process's status, in process order.
func (c *Cluster) Status(ctx context.Context) ([]daemon.StatusResponse, error) {
	return gather[daemon.StatusResponse](ctx, c, http.MethodGet, "/status", nil)
}

// Convergence is what WaitConverged observed when it returned.
type Convergence struct {
	// Tick is the deployment's stopping time: the maximum DoneTick over the
	// nodes hosted by honest processes, in rounds (a tick is one
	// synchronous round and DoneTick is stamped in the simulator's units;
	// the processes' clocks are not aligned) — what the simulator's E18
	// measures for an adversarial population.
	Tick int
	// ByzantineDone of the ByzantineNodes hosted by Byzantine processes
	// were at full rank at that moment. They are reported, not waited for:
	// such a node hears nothing usable from its own process, so one whose
	// neighbours are all hosted there never completes.
	ByzantineDone, ByzantineNodes int
}

// WaitConverged polls until every node hosted by an honest process reports
// full rank, and returns the stopping time beside the state of the
// Byzantine-hosted nodes.
func (c *Cluster) WaitConverged(ctx context.Context) (Convergence, error) {
	var conv Convergence
	poll := ctlhttp.Retry{First: 250 * time.Millisecond, Fatal: func(err error) bool { return err != errConverging }}
	err := poll.Do(ctx, func() error {
		all, err := c.Status(ctx)
		if err != nil {
			return err
		}
		conv = Convergence{}
		for i, st := range all {
			for _, n := range st.Nodes {
				switch {
				case c.procs[i].byz:
					conv.ByzantineNodes++
					if n.Done {
						conv.ByzantineDone++
					}
				case !n.Done:
					return errConverging
				default:
					conv.Tick = max(conv.Tick, n.DoneTick)
				}
			}
		}
		return nil
	})
	if err != nil {
		return Convergence{}, fmt.Errorf("livectl: convergence: %w", err)
	}
	return conv, nil
}

// errConverging is WaitConverged's "not yet".
var errConverging = errors.New("livectl: still converging")

// ApplyTopology swaps every process's communication topology.
func (c *Cluster) ApplyTopology(ctx context.Context, family string, n int, seed uint64) error {
	return c.each(ctx, "/topology", daemon.TopologyRequest{Family: family, N: n, Seed: seed})
}

// Chaos applies one degradation request to every process's chaos layer
// and returns each process's resulting state (an empty request only reads
// it).
func (c *Cluster) Chaos(ctx context.Context, req daemon.ChaosRequest) ([]daemon.ChaosState, error) {
	return gather[daemon.ChaosState](ctx, c, http.MethodPost, "/chaos", req)
}

// Partition symmetrically cuts the given nodes off from the deployment:
// every process's chaos layer drops traffic addressed to them, so the
// partitioned nodes stop receiving from everyone (including each other's
// processes) until Heal.
func (c *Cluster) Partition(ctx context.Context, nodes []core.NodeID) error {
	ids := make([]int, len(nodes))
	for i, v := range nodes {
		ids[i] = int(v)
	}
	_, err := c.Chaos(ctx, daemon.ChaosRequest{Partition: ids})
	return err
}

// Heal lifts every partition on every process. Byzantine processes keep
// their corrupt-rate (healing reconnects the network, it does not reform
// the adversary).
func (c *Cluster) Heal(ctx context.Context) error {
	_, err := c.Chaos(ctx, daemon.ChaosRequest{Heal: true})
	return err
}

// Kill crashes one node (on its home process).
func (c *Cluster) Kill(ctx context.Context, v core.NodeID) error {
	return c.at(ctx, v, "/kill", daemon.KillRequest{Node: int(v)})
}

// Metrics fetches one process's Prometheus text exposition.
func (c *Cluster) Metrics(ctx context.Context, procIndex int) (string, error) {
	if procIndex < 0 || procIndex >= len(c.procs) {
		return "", fmt.Errorf("livectl: no process %d", procIndex)
	}
	var text strings.Builder
	err := c.do(ctx, http.MethodGet, c.procs[procIndex].ctl, "/metrics", nil, &text)
	return text.String(), err
}

// Drain asks every process to shut down gracefully and waits for the ones
// this cluster spawned to exit, reporting any non-zero exit status.
func (c *Cluster) Drain(ctx context.Context) error {
	if err := c.each(ctx, "/drain", nil); err != nil {
		return err
	}
	var firstErr error
	for i, p := range c.procs {
		if p.cmd == nil {
			continue
		}
		select {
		case err := <-p.waitCh:
			p.waitCh <- err // keep Stop's Wait observation valid
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("livectl: gossipd %d exited uncleanly: %w", i, err)
			}
		case <-ctx.Done():
			return fmt.Errorf("livectl: drain: %w", ctx.Err())
		}
	}
	return firstErr
}

// Stop force-terminates any spawned process still running and removes the
// owned build directory. It is safe after Drain and as a deferred cleanup.
func (c *Cluster) Stop() {
	for _, p := range c.procs {
		if p.cmd == nil {
			continue
		}
		select {
		case err := <-p.waitCh:
			p.waitCh <- err // already exited
		default:
			_ = p.cmd.Process.Kill()
			<-p.waitCh
		}
	}
	if c.tmpDir != "" {
		_ = os.RemoveAll(c.tmpDir)
	}
}
