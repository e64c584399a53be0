// Gossipctl drives gossipd deployments over their HTTP control planes.
//
// Subcommands against a single daemon (-ctl host:port):
//
//	gossipctl status   -ctl 127.0.0.1:8080
//	gossipctl metrics  -ctl 127.0.0.1:8080
//	gossipctl seed     -ctl 127.0.0.1:8080 -node 0 -index 2 [-payload hex]
//	gossipctl start    -ctl 127.0.0.1:8080
//	gossipctl topology -ctl 127.0.0.1:8080 -graph ring -n 48 -graph-seed 1
//	gossipctl kill     -ctl 127.0.0.1:8080 -node 3
//	gossipctl chaos    -ctl 127.0.0.1:8080 [-latency 5ms] [-jitter 2ms] [-corrupt 0.2] [-partition 1,2] [-heal]
//	gossipctl drain    -ctl 127.0.0.1:8080
//
// And the one-shot orchestrator (the CI smoke job):
//
//	gossipctl run -procs 48 -graph ring -n 48 -k 8 -loss 0.1 -timeout 120s
//
// which builds gossipd, spawns the processes, tells each where every
// node's gossip socket is, seeds round-robin, starts, waits for
// convergence, drains, and reports the stopping tick. With -byzantine,
// -chaos-latency and -partition-after it also covers the chaos recipe:
// Byzantine processes corrupting every frame, injected link latency, and
// a mid-run partition that heals before convergence.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"algossip/internal/core"
	"algossip/internal/daemon"
	"algossip/internal/gf"
	"algossip/internal/livectl"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "gossipctl: usage: gossipctl {run|status|metrics|seed|start|topology|kill|chaos|drain} [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runDeployment(os.Args[2:])
	case "status", "metrics", "seed", "start", "topology", "kill", "drain", "chaos":
		err = runSingle(os.Args[1], os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipctl:", err)
		os.Exit(1)
	}
}

// runDeployment is the one-shot orchestrator: spawn, seed, start, wait,
// drain — exit 0 only if every process converged and drained cleanly.
func runDeployment(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	opts := livectl.Options{
		Options: daemon.Options{GraphName: "ring", GraphN: 8, GraphSeed: 1, K: 4, Seed: 1},
		Procs:   2,
	}
	opts.BindFlags(fs)
	fs.IntVar(&opts.Procs, "procs", opts.Procs, "daemon process count")
	fs.IntVar(&opts.ByzantineProcs, "byzantine", 0, "number of Byzantine processes (corrupt every outbound frame)")
	fs.StringVar(&opts.Bin, "bin", "", "pre-built gossipd binary (default: go build)")
	var (
		partAfter = fs.Duration("partition-after", 0, "partition a node subset this long after start (0 = never)")
		healAfter = fs.Duration("heal-after", 0, "heal the partition this long after it opens (0 = 2x partition-after)")
		partFrac  = fs.Float64("partition-frac", 0.25, "fraction of nodes cut off by the scheduled partition")
		timeout   = fs.Duration("timeout", 120*time.Second, "overall deadline")
	)
	_ = fs.Parse(args)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	c, err := livectl.Launch(ctx, opts)
	if err != nil {
		return err
	}
	defer c.Stop()
	fmt.Printf("gossipctl: %d processes hosting %d nodes healthy in %v\n",
		c.Procs(), c.N(), time.Since(start).Round(time.Millisecond))

	var payloads [][]byte
	if opts.PayloadLen > 0 {
		q := opts.Q
		if q == 0 {
			q = 256 // the runtime's default field
		}
		field, rng := gf.MustNew(q), core.NewRand(core.SplitSeed(opts.Seed, 50))
		payloads = make([][]byte, opts.K)
		for i := range payloads {
			payloads[i] = gf.RandBytes(field, opts.PayloadLen, rng)
		}
	}
	if err := c.SeedRoundRobin(ctx, payloads); err != nil {
		return err
	}
	if err := c.Start(ctx); err != nil {
		return err
	}
	if opts.ByzantineProcs > 0 {
		fmt.Printf("gossipctl: %d Byzantine process(es) corrupting every outbound frame\n", opts.ByzantineProcs)
	}

	// Scheduled mid-run degradation: cut the tail of the node range (the
	// round-robin seeding never reaches it for k well under n, so no
	// message is trapped behind the cut), then heal and let convergence
	// finish.
	if *partAfter > 0 {
		cut := int(float64(c.N()) * *partFrac)
		if cut < 1 {
			cut = 1
		}
		nodes := make([]core.NodeID, 0, cut)
		for v := c.N() - cut; v < c.N(); v++ {
			nodes = append(nodes, core.NodeID(v))
		}
		heal := *healAfter
		if heal == 0 {
			heal = 2 * *partAfter
		}
		go func() {
			select {
			case <-time.After(*partAfter):
			case <-ctx.Done():
				return
			}
			if err := c.Partition(ctx, nodes); err != nil {
				fmt.Fprintln(os.Stderr, "gossipctl: partition:", err)
				return
			}
			fmt.Printf("gossipctl: partitioned %d nodes (%d..%d) at t=%v\n",
				cut, c.N()-cut, c.N()-1, time.Since(start).Round(time.Millisecond))
			select {
			case <-time.After(heal):
			case <-ctx.Done():
				return
			}
			if err := c.Heal(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "gossipctl: heal:", err)
				return
			}
			fmt.Printf("gossipctl: partition healed at t=%v\n", time.Since(start).Round(time.Millisecond))
		}()
	}

	conv, err := c.WaitConverged(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("gossipctl: converged at tick %d (%v wall)\n", conv.Tick, time.Since(start).Round(time.Millisecond))
	if conv.ByzantineNodes > 0 {
		fmt.Printf("gossipctl: that is the honest processes' stopping tick; Byzantine-hosted nodes at full rank: %d/%d\n",
			conv.ByzantineDone, conv.ByzantineNodes)
	}
	if err := c.Drain(ctx); err != nil {
		return err
	}
	fmt.Println("gossipctl: all processes drained cleanly")
	return nil
}

// runSingle sends one control-plane request to one daemon: a call on the
// one-process cluster attached at -ctl, the answer printed to stdout.
func runSingle(sub string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	var (
		ctl       = fs.String("ctl", "", "daemon control address host:port (required)")
		node      = fs.Int("node", 0, "node id (seed, kill)")
		index     = fs.Int("index", 0, "message index (seed)")
		payload   = fs.String("payload", "", "hex payload symbols (seed)")
		graphName = fs.String("graph", "ring", "topology family (topology)")
		graphN    = fs.Int("n", 0, "topology node count (topology)")
		graphSeed = fs.Uint64("graph-seed", 1, "topology rng seed (topology)")
		partition = fs.String("partition", "", "chaos: comma-separated node ids to cut off (chaos)")
	)
	var req daemon.ChaosRequest
	ms := func(dst **float64) func(string) error {
		return func(v string) error {
			d, err := time.ParseDuration(v)
			f := float64(d) / float64(time.Millisecond)
			*dst = &f
			return err
		}
	}
	fs.Func("latency", "chaos: injected per-frame latency (chaos)", ms(&req.LatencyMS))
	fs.Func("jitter", "chaos: extra uniform random latency (chaos)", ms(&req.JitterMS))
	fs.Func("corrupt", "chaos: per-frame corruption probability (chaos)", func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		req.CorruptRate = &f
		return err
	})
	fs.BoolVar(&req.Heal, "heal", false, "chaos: lift every partition (chaos)")
	_ = fs.Parse(args)
	if *ctl == "" {
		return fmt.Errorf("%s: -ctl is required", sub)
	}
	if *partition != "" {
		nodes, err := daemon.ParseNodeList(*partition)
		if err != nil {
			return fmt.Errorf("chaos: -partition: %w", err)
		}
		for _, v := range nodes {
			req.Partition = append(req.Partition, int(v))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := livectl.Attach(ctx, *ctl)
	if err != nil {
		return err
	}

	var out any = sub + ": ok"
	switch sub {
	case "status":
		var st []daemon.StatusResponse
		if st, err = c.Status(ctx); err == nil {
			out = st[0]
		}
	case "metrics":
		out, err = c.Metrics(ctx, 0)
	case "start":
		err = c.Start(ctx)
	case "drain":
		err = c.Drain(ctx)
	case "kill":
		err = c.Kill(ctx, core.NodeID(*node))
	case "topology":
		err = c.ApplyTopology(ctx, *graphName, *graphN, *graphSeed)
	case "chaos":
		// With no knob set the request changes nothing and reads the state.
		var st []daemon.ChaosState
		if st, err = c.Chaos(ctx, req); err == nil {
			out = st[0]
		}
	case "seed":
		raw, derr := hex.DecodeString(*payload)
		if derr != nil {
			return fmt.Errorf("seed: bad -payload hex: %w", derr)
		}
		err = c.Seed(ctx, core.NodeID(*node), *index, raw)
	}
	if err != nil {
		return err
	}
	if text, ok := out.(string); ok {
		fmt.Fprintln(stdout, strings.TrimRight(text, "\n"))
		return nil
	}
	return json.NewEncoder(stdout).Encode(out)
}
