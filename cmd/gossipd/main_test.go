package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"algossip/internal/ctlhttp"
)

// TestRunAnnouncesServesAndDrains: gossipd prints the handshake line its
// controller waits for (livectl reads the control address out of it: the
// port is ephemeral), answers /healthz there, and exits 0 — run returns nil
// — when its context ends, the SIGTERM path.
func TestRunAnnouncesServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stdout, w := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-nodes", "0,1,2,3", "-graph", "ring", "-n", "4", "-k", "2", "-interval", "5ms"}, w)
		_ = w.Close()
	}()

	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("no handshake line: %v (run: %v)", err, <-done)
	}
	m := regexp.MustCompile(`^gossipd: control http://(127\.0\.0\.1:\d+) nodes 0,1,2,3\n$`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("handshake line %q", line)
	}
	var word strings.Builder
	if err := (ctlhttp.Client{Base: "http://" + m[1]}).Do(ctx, http.MethodGet, "/healthz", nil, &word); err != nil || word.String() != "ok\n" {
		t.Fatalf("GET /healthz: %q, %v", word.String(), err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}

func TestRunRefusesBadCommandLines(t *testing.T) {
	// A command line let through on an ended context serves nothing and
	// returns nil, which counts as accepted here.
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{},                             // -nodes is required
		{"-nodes", "0,x"},              // not a node list
		{"-nodes", "0,1x"},             // trailing garbage, once read as 0,1
		{"-nodes", "0", "-peers", "0"}, // not id=addr
		{"-nodes", "0", "-n", "4", "-k", "2", "-peers", "4=127.0.0.1:9004"}, // no node 4
		{"-nodes", "0", "-n", "4", "-k", "2", "-peers", "-1=127.0.0.1:9000"},
		{"-nodes", "0", "-n", "4", "-k", "2", "-peers", "1=127.0.0.1"},                         // no port
		{"-nodes", "0,1", "-n", "4", "-k", "2", "-peers", "0=127.0.0.1:9000,1=127.0.0.1:9001"}, // one process, two addresses
		{"-nodes", "0", "-n", "4", "-graph", "nosuch"},
		{"-nodes", "0", "-n", "4", "-transport", "carrier-pigeon"},
		{"-nodes", "0", "-n", "4", "-k", "2", "-loss", "1.5"},
		{"-nodes", "0", "-n", "4", "-k", "2", "-loss", "NaN"}, // NaN passes a range written as x < 0 || x >= 1
		{"-nodes", "0", "-n", "4", "-k", "2", "-chaos-corrupt", "1.5"},
		{"-nodes", "0", "-n", "4", "-k", "2", "-chaos-corrupt", "NaN"},
		{"-nosuchflag"},
	} {
		if err := run(ended, args, io.Discard); err == nil {
			t.Errorf("gossipd %v: accepted", args)
		}
	}
}
