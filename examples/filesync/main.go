// Filesync: replicate a file to every node of a cluster using real
// concurrent RLNC gossip over TCP. The file is chunked into k messages;
// each node starts with at most one chunk; goroutine nodes exchange random
// linear combinations over loopback TCP until everyone can reconstruct the
// whole file — the "multicast via network coding" application from the
// paper's introduction.
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"algossip"
	"algossip/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "filesync:", err)
		os.Exit(1)
	}
}

func run() error {
	// The "file": 2 KiB of pseudo-random bytes.
	rng := core.NewRand(2024)
	file := make([]byte, 2048)
	for i := range file {
		file[i] = byte(rng.Uint64())
	}

	const k = 8
	payloadLen := (len(file)+8)/k + 1
	msgs, err := algossip.SplitBytes(file, k, payloadLen)
	if err != nil {
		return err
	}

	// An 8-node random 4-regular overlay, as a peer-to-peer swarm would
	// build.
	g := algossip.RandomRegular(8, 4, algossip.NewRand(5))
	tr := algossip.NewTCPTransport()
	defer func() { _ = tr.Close() }()

	cluster, err := algossip.NewCluster(tr, g, k,
		algossip.WithPayload(payloadLen),
		algossip.WithInterval(300*time.Microsecond),
		algossip.WithSeed(77))
	if err != nil {
		return err
	}
	// Chunk i starts at node i — no node has the whole file.
	for i, m := range msgs {
		if err := cluster.Seed(algossip.NodeID(i), m); err != nil {
			return err
		}
	}

	fmt.Printf("replicating %d bytes as k=%d coded chunks over %s via TCP...\n",
		len(file), k, g.Name())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	done, err := cluster.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%d/%d nodes reached full rank in %v\n", done, g.N(), time.Since(start).Round(time.Microsecond))

	// Every node reconstructs the identical file.
	for v := 0; v < g.N(); v++ {
		decoded, err := cluster.Decode(algossip.NodeID(v))
		if err != nil {
			return fmt.Errorf("node %d decode: %w", v, err)
		}
		got, err := algossip.JoinBytes(decoded)
		if err != nil {
			return fmt.Errorf("node %d join: %w", v, err)
		}
		if !bytes.Equal(got, file) {
			return fmt.Errorf("node %d reconstructed a different file", v)
		}
	}
	fmt.Println("every node reconstructed the file bit-exactly ✓")
	return nil
}
