// Gossipd is the network-runtime daemon: it hosts one or more nodes of an
// algebraic-gossip cluster over real TCP or UDP sockets and exposes an
// HTTP control plane (health, Prometheus metrics, seed/start/topology/
// kill/drain). A multi-process deployment runs N gossipd processes with
// disjoint -nodes sets: gossipctl run reads each node's ephemeral gossip
// address from GET /status and declares the whole map to every process
// (POST /peers); by hand, give each the same -peers map. SIGTERM (or
// SIGINT, or POST /drain) drains gracefully: node goroutines stop,
// sockets close, exit status 0.
//
// Example — a two-process 4-node ring under 10% loss on declared
// addresses, one per process (a process's local nodes share its one
// gossip socket; two local nodes at two addresses are refused):
//
//	gossipd -nodes 0,1 -peers 0=127.0.0.1:9000,1=127.0.0.1:9000,2=127.0.0.1:9001,3=127.0.0.1:9001 \
//	        -graph ring -n 4 -k 2 -loss 0.1 -http 127.0.0.1:8080 &
//	gossipd -nodes 2,3 -peers 0=127.0.0.1:9000,1=127.0.0.1:9000,2=127.0.0.1:9001,3=127.0.0.1:9001 \
//	        -graph ring -n 4 -k 2 -loss 0.1 -http 127.0.0.1:8081 &
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"algossip/internal/daemon"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossipd:", err)
		os.Exit(1)
	}
}

// run hosts the daemon the command line describes until ctx ends or a
// controller drains it.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gossipd", flag.ContinueOnError)
	opts := daemon.Options{GraphName: "ring", GraphSeed: 1, Seed: 1, ChaosSeed: 13}
	opts.BindFlags(fs)
	fs.StringVar(&opts.HTTPAddr, "http", "", "control/metrics listen address (default: an ephemeral loopback port)")
	nodes := fs.String("nodes", "", "comma-separated local node ids (required)")
	peers := fs.String("peers", "", "node address map: id=host:port,... (default: one ephemeral port, declared later with POST /peers)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var err error
	if opts.Local, err = daemon.ParseNodeList(*nodes); err != nil {
		return err
	}
	if opts.Peers, err = daemon.ParsePeerMap(*peers); err != nil {
		return err
	}
	d, err := daemon.New(opts)
	if err != nil {
		return err
	}
	// The control address line is the process's handshake with its
	// controller (livectl reads it: the port is ephemeral).
	fmt.Fprintf(stdout, "gossipd: control http://%s nodes %s\n", d.ControlAddr(), *nodes)
	return d.Run(ctx)
}
