// Lossycluster: failure injection on the concurrent runtime. Runs the same
// coded gossip cluster three times — clean, over a 30%-loss transport, and
// with a node crashing mid-run — and shows that network coding needs no
// retransmission or recovery protocol: any surviving random combination is
// as good as any other, so loss only dilates time and a dead node's role
// is absorbed by redundancy.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"algossip"
	"algossip/internal/runtime"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lossycluster:", err)
		os.Exit(1)
	}
}

const (
	k          = 6
	payloadLen = 16
)

func buildCluster(tr algossip.Transport, seed uint64) (*algossip.Cluster, []algossip.Message, error) {
	g := algossip.Grid(3, 3)
	c, err := algossip.NewCluster(tr, g, k,
		algossip.WithPayload(payloadLen),
		algossip.WithInterval(200*time.Microsecond),
		algossip.WithSeed(seed))
	if err != nil {
		return nil, nil, err
	}
	msgs := algossip.RandomMessages(k, payloadLen, seed)
	for i, m := range msgs {
		if err := c.Seed(algossip.NodeID(i), m); err != nil {
			return nil, nil, err
		}
	}
	return c, msgs, nil
}

func verify(c *algossip.Cluster, msgs []algossip.Message, nodes int) error {
	for v := 0; v < nodes; v++ {
		got, err := c.Decode(algossip.NodeID(v))
		if err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
		for i := range msgs {
			for j := range msgs[i].Payload {
				if got[i].Payload[j] != msgs[i].Payload[j] {
					return fmt.Errorf("node %d decoded message %d incorrectly", v, i)
				}
			}
		}
	}
	return nil
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Scenario 1: clean in-memory transport.
	clean := algossip.NewChanTransport()
	defer closeQuietly(clean)
	c1, msgs, err := buildCluster(clean, 1)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := c1.Run(ctx); err != nil {
		return err
	}
	cleanTime := time.Since(start)
	if err := verify(c1, msgs, 9); err != nil {
		return err
	}
	fmt.Printf("clean run:        9/9 nodes decoded in %v\n", cleanTime.Round(time.Microsecond))

	// Scenario 2: 30% of all packets dropped.
	lossy, err := runtime.NewLossyTransport(runtime.NewChanTransport(), 0.3, 99)
	if err != nil {
		return err
	}
	defer closeQuietly(lossy)
	c2, msgs2, err := buildCluster(lossy, 2)
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := c2.Run(ctx); err != nil {
		return err
	}
	lossTime := time.Since(start)
	if err := verify(c2, msgs2, 9); err != nil {
		return err
	}
	stats := lossy.Stats()
	fmt.Printf("30%% packet loss:  9/9 nodes decoded in %v (%d delivered, %d dropped — no retransmissions)\n",
		lossTime.Round(time.Microsecond), stats.Total.Sent, stats.Total.Dropped)

	// Scenario 3: crash a corner node mid-run.
	churn := algossip.NewChanTransport()
	defer closeQuietly(churn)
	c3, msgs3, err := buildCluster(churn, 3)
	if err != nil {
		return err
	}
	go func() {
		time.Sleep(time.Millisecond)
		c3.Kill(8)
	}()
	start = time.Now()
	done, err := c3.Run(ctx)
	if err != nil {
		return err
	}
	if err := verify(c3, msgs3, 8); err != nil { // the 8 survivors
		return err
	}
	fmt.Printf("node 8 crashed:   %d nodes decoded in %v (crash absorbed by redundancy)\n",
		done, time.Since(start).Round(time.Microsecond))
	return nil
}

func closeQuietly(t algossip.Transport) {
	_ = t.Close()
}
