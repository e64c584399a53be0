package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/daemon"
)

// TestChaosRefusesPartitionBeforeDialing: a -partition that is no node
// list is refused on the command line, before any daemon is contacted
// (nothing listens at the -ctl address given).
func TestChaosRefusesPartitionBeforeDialing(t *testing.T) {
	err := runSingle("chaos", []string{"-ctl", "127.0.0.1:1", "-partition", "2.5"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-partition") {
		t.Fatalf("chaos -partition 2.5: %v, want a refusal naming -partition", err)
	}
}

// TestSingleDaemonSubcommands walks the one-daemon subcommands through a
// daemon's whole life over its control plane: what each prints, what the
// daemon does, and that drain ends its Run cleanly.
func TestSingleDaemonSubcommands(t *testing.T) {
	d, err := daemon.New(daemon.Options{
		GraphName: "ring", GraphN: 4, Local: []core.NodeID{0, 1, 2, 3},
		K: 2, PayloadLen: 2, Q: 16, Interval: 2 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- d.Run(ctx) }()

	ctl := func(sub string, args ...string) (string, error) {
		var out bytes.Buffer
		err := runSingle(sub, append([]string{"-ctl", d.ControlAddr()}, args...), &out)
		return out.String(), err
	}
	status := func() daemon.StatusResponse {
		t.Helper()
		out, err := ctl("status")
		var st daemon.StatusResponse
		if err != nil || json.Unmarshal([]byte(out), &st) != nil || len(st.Nodes) != 4 {
			t.Fatalf("status: %q, %v", out, err)
		}
		return st
	}

	if st := status(); st.Done || st.Nodes[0].Rank != 0 {
		t.Fatalf("fresh daemon: %+v", st)
	}
	if _, err := ctl("seed", "-node", "0", "-index", "0", "-payload", "zz"); err == nil || !strings.Contains(err.Error(), "bad -payload hex") {
		t.Errorf("seed with a payload that is not hex: %v", err)
	}
	if _, err := ctl("seed", "-node", "0", "-index", "0", "-payload", "010203"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("seed with three symbols where two are wanted: %v", err)
	}
	for i, node := range []string{"0", "2"} {
		out, err := ctl("seed", "-node", node, "-index", string(rune('0'+i)), "-payload", "0a0b")
		if err != nil || out != "seed: ok\n" {
			t.Fatalf("seed at node %s: %q, %v", node, out, err)
		}
	}
	if st := status(); st.Nodes[0].Rank != 1 || st.Nodes[2].Rank != 1 {
		t.Fatalf("after seeding: %+v", st.Nodes)
	}

	out, err := ctl("chaos", "-latency", "1ms", "-partition", "3")
	var chaos daemon.ChaosState
	if err != nil || json.Unmarshal([]byte(out), &chaos) != nil || chaos.LatencyMS != 1 || len(chaos.Partition) != 1 || chaos.Partition[0] != 3 {
		t.Fatalf("chaos: %q, %v", out, err)
	}
	if _, err := ctl("chaos", "-partition", "0,x"); err == nil {
		t.Error("chaos with a partition that is no node list accepted")
	}
	if out, err = ctl("chaos", "-heal"); err != nil || json.Unmarshal([]byte(out), &chaos) != nil || len(chaos.Partition) != 0 || chaos.LatencyMS != 1 {
		t.Fatalf("chaos -heal: %q, %v", out, err)
	}

	if out, err := ctl("start"); err != nil || out != "start: ok\n" {
		t.Fatalf("start: %q, %v", out, err)
	}
	for !status().Done {
		if ctx.Err() != nil {
			t.Fatal("daemon never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if out, err := ctl("kill", "-node", "1"); err != nil || out != "kill: ok\n" {
		t.Fatalf("kill: %q, %v", out, err)
	}
	if _, err := ctl("kill", "-node", "9"); err == nil {
		t.Error("kill of a node outside the deployment accepted")
	}
	if out, err := ctl("metrics"); err != nil || !strings.Contains(out, "algossip_node_rank") {
		t.Fatalf("metrics: %q, %v", out, err)
	}
	if out, err := ctl("topology", "-graph", "complete", "-n", "4"); err != nil || out != "topology: ok\n" {
		t.Fatalf("topology: %q, %v", out, err)
	}

	if out, err := ctl("drain"); err != nil || out != "drain: ok\n" {
		t.Fatalf("drain: %q, %v", out, err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("daemon run after drain: %v", err)
	}
	if _, err := ctl("status"); err == nil {
		t.Error("status of a drained daemon answered")
	}
}
