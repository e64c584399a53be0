package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algossip/internal/harness"
	"algossip/internal/harness/harnesstest"
	"algossip/internal/resultstore"
)

// goldenCSV is the pinned `sweep -graph line -protocol ag -sizes 8,12
// -trials 2 -seed 5` output (see cmd/sweep's golden table): the fabric
// CLI must reproduce it byte for byte through a real coordinator and
// worker.
const goldenCSV = "graph,protocol,model,n,k,trial,rounds\n" +
	"line-8,uniform-ag,synchronous,8,4,0,20\n" +
	"line-8,uniform-ag,synchronous,8,4,1,20\n" +
	"line-12,uniform-ag,synchronous,12,6,0,28\n" +
	"line-12,uniform-ag,synchronous,12,6,1,24\n"

// listening starts a coordinator on a free port and returns its base URL,
// read off its first stderr line, and the channel its result arrives on.
func listening(t *testing.T, args []string) (string, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- runCoordinator(append([]string{"-listen", "127.0.0.1:0"}, args...), io.Discard, pw)
		_ = pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("coordinator exited without announcing its address: %v", <-done)
	}
	_, addr, _ := strings.Cut(lines.Text(), " on ")
	go func() { _, _ = io.Copy(io.Discard, pr) }()
	return "http://" + addr, done
}

// localPoolCSV is what `sweep -parallel 1` writes for the same experiment
// words: sweep's defaults, the shared binding, the local pool.
func localPoolCSV(t *testing.T, words []string) string {
	t.Helper()
	spec := harness.Spec{Name: "sweep", Graph: "barbell", Sizes: []int{16, 32, 64}, KMode: "half",
		Q: 2, Trials: 3, Seed: 1, Lean: true}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	spec.BindFlags(fs)
	spec.BindGridFlags(fs)
	if err := fs.Parse(words); err != nil {
		t.Fatal(err)
	}
	rs, err := harness.Runner{Parallel: 1}.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFabricdEndToEnd(t *testing.T) {
	for _, c := range []struct {
		name   string
		words  []string
		want   string // merged CSV; empty = the local pool's on the same words
		query  []string
		tail   []string
		regime string // what -cells prints for both cells
	}{
		{
			name:  "golden",
			words: []string{"-graph", "line", "-protocol", "ag", "-sizes", "8,12", "-trials", "2", "-seed", "5"},
			want:  goldenCSV,
			query: []string{"-spec", "sweep", "-graph", "line", "-n", "8"},
			tail:  []string{"trials=2", "p99=20.0"},
		},
		{
			// A regime launched from fabricd's own command line: these
			// words used to be "flag provided but not defined" here.
			name: "adversarial-push",
			words: []string{"-graph", "complete", "-sizes", "24,32", "-trials", "2", "-seed", "9",
				"-adversary", "byzantine:frac=0.1,mode=pollute", "-classes", "straggler:frac=0.2,slow=4", "-action", "push"},
			query:  []string{"-graph", "complete", "-n", "24", "-regime", "action=PUSH/adv=byzantine:frac=0.1,mode=pollute/classes=straggler:frac=0.2,slow=4"},
			tail:   []string{"trials=2"},
			regime: "regime=action=PUSH/adv=byzantine:frac=0.1,mode=pollute/classes=straggler:frac=0.2,slow=4",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "fab.csv")
			storePath := filepath.Join(dir, "results.jsonl")
			base, coordDone := listening(t, append([]string{
				"-session", "ci", "-checkpoint", filepath.Join(dir, "fab.ckpt"),
				"-store", storePath, "-out", out, "-lease-chunk", "2",
			}, c.words...))

			var wbuf bytes.Buffer
			if err := runWorker([]string{
				"-coordinator", base, "-parallel", "2", "-name", "w0",
			}, &wbuf); err != nil {
				t.Fatalf("worker: %v", err)
			}
			if !strings.Contains(wbuf.String(), "executed 4 trials") {
				t.Fatalf("worker summary = %q", wbuf.String())
			}

			// The coordinator lingers after completion; status must report
			// the finished counters while it does.
			var sbuf bytes.Buffer
			if err := runStatus([]string{"-coordinator", base}, &sbuf); err != nil {
				t.Fatalf("status: %v", err)
			}
			if !strings.Contains(sbuf.String(), `"done":4`) {
				t.Fatalf("status = %q", sbuf.String())
			}

			if err := <-coordDone; err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want := c.want
			if want == "" {
				want = localPoolCSV(t, c.words)
			}
			if string(data) != want {
				t.Fatalf("fabric CSV differs from sweep's:\ngot:\n%swant:\n%s", data, want)
			}

			// The store answers the tail query without touching the CSV.
			var qbuf bytes.Buffer
			if err := runQuery(append([]string{"-store", storePath}, c.query...), &qbuf); err != nil {
				t.Fatalf("query: %v", err)
			}
			for _, frag := range c.tail {
				if !strings.Contains(qbuf.String(), frag) {
					t.Fatalf("query output = %q, want %q in it", qbuf.String(), frag)
				}
			}
			var cbuf bytes.Buffer
			if err := runQuery([]string{"-store", storePath, "-cells"}, &cbuf); err != nil {
				t.Fatalf("query -cells: %v", err)
			}
			cells := cbuf.String()
			if strings.Count(cells, "\n") != 2 || strings.Count(cells, c.regime+" trials=") != 2 ||
				strings.Contains(cells, "regime=") != (c.regime != "") {
				t.Fatalf("query -cells: want 2 cells, each with %q:\n%s", c.regime, cells)
			}
			// The default regime holds exactly the rows that declared none.
			var dbuf bytes.Buffer
			if err := runQuery([]string{"-store", storePath, "-regime", ""}, &dbuf); err != nil {
				t.Fatalf("query -regime '': %v", err)
			}
			if inDefault := strings.Contains(dbuf.String(), "trials=4"); inDefault != (c.regime == "") {
				t.Fatalf("default-regime query = %q with cells%s", dbuf.String(), c.regime)
			}
		})
	}
}

// TestQueryFlagConvention: -dynamics and -generations filter on their value
// when passed — the zero values being the static topology and whole-k coding
// — and are wildcards when not; -rate -1 and -regime any stay "any". The
// store holds a static, an edge-failure and a generation-coded sweep of one
// (graph, n): the paper's protocol is the first of the three only.
func TestQueryFlagConvention(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range [][]string{nil, {"-dynamics", "edge:rate=0.2"}, {"-generations", "4"}} {
		spec := harness.Spec{Name: "sweep", Graph: "ring", Sizes: []int{16}, KMode: "half", Trials: 3, Seed: 1, Lean: true}
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		spec.BindFlags(fs)
		if err := fs.Parse(words); err != nil {
			t.Fatal(err)
		}
		rs, err := harness.Runner{Parallel: 1}.Run(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(resultstore.FromResultSet(rs)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args   []string
		trials int
	}{
		{nil, 9},
		{[]string{"-rate", "-1", "-regime", "any"}, 9},
		{[]string{"-dynamics", ""}, 6},
		{[]string{"-generations", "0"}, 6},
		{[]string{"-dynamics", "", "-generations", "0"}, 3},
		{[]string{"-dynamics", "edge"}, 3},
		{[]string{"-dynamics", "edge:rate=0.2,period=1"}, 3},
		{[]string{"-dynamics", "churn"}, 0},
		{[]string{"-generations", "4"}, 3},
		{[]string{"-rate", "0", "-regime", ""}, 9},
	} {
		var buf bytes.Buffer
		args := append([]string{"-store", storePath, "-graph", "ring", "-n", "16"}, c.args...)
		if err := runQuery(args, &buf); err != nil {
			t.Fatalf("query %v: %v", c.args, err)
		}
		if want := fmt.Sprintf("trials=%d ", c.trials); !strings.HasPrefix(buf.String(), want) {
			t.Errorf("query %v = %q, want %q", c.args, buf.String(), want)
		}
	}
}

func TestFabricdRejectsBadFlags(t *testing.T) {
	harnesstest.RejectsBadSpecWords(t, func(args []string, stdout io.Writer) error {
		return runCoordinator(args, stdout, io.Discard)
	})
	if err := runCoordinator([]string{"-resume"}, io.Discard, io.Discard); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	// An unbuildable field used to start the coordinator and kill its first
	// worker; now the spec is refused before the listener: on a port that is
	// taken, the answer is still the field order, not "address in use".
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = runCoordinator([]string{"-q", "6", "-sizes", "16", "-listen", ln.Addr().String()}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "supported: 2, 4, 8") {
		t.Errorf("coordinator -q 6: %v, want a refusal naming the supported orders", err)
	}
	if err := runWorker([]string{}, io.Discard); err == nil {
		t.Error("worker without -coordinator accepted")
	}
	if err := runStatus([]string{}, io.Discard); err == nil {
		t.Error("status without -coordinator accepted")
	}
	if err := runQuery([]string{}, io.Discard); err == nil {
		t.Error("query without -store accepted")
	}
}
