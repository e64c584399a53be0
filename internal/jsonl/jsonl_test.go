package jsonl_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algossip/internal/harness"
	"algossip/internal/jsonl"
	"algossip/internal/resultstore"
)

// owner is one user of the log format, reduced to what the torn-tail
// table needs: its header line, a way to render entry i, and an open that
// reports how many entries it kept and appends entry next.
type owner struct {
	name   string
	header string
	entry  func(i int) string
	reopen func(t *testing.T, path string, next int) (kept int, err error)
}

type rawLine struct {
	I int `json:"i"`
}

func owners(t *testing.T) []owner {
	spec := &harness.Spec{Name: "torn", Graph: "line", Sizes: []int{8}, Trials: 8, Seed: 5}
	_, trials, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := len(trials)
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rec := func(i int) resultstore.Record {
		return resultstore.Record{Spec: "torn", Cell: resultstore.Cell{Graph: "line", N: 8, K: 4, Q: 2, Protocol: "uniform-ag"}, Trial: i, Rounds: 10 + i}
	}
	return []owner{
		{
			name: "log", header: `{"v":1}`,
			entry: func(i int) string { return marshal(rawLine{I: i}) },
			reopen: func(t *testing.T, path string, next int) (int, error) {
				kept := 0
				l, err := jsonl.Open(path, map[string]int{"v": 1}, true, func(off int64, line []byte) error {
					if off == 0 {
						if string(line) != `{"v":1}` {
							return errors.New("foreign header")
						}
						return nil
					}
					var r rawLine
					if err := json.Unmarshal(line, &r); err != nil {
						return err
					}
					kept++
					return nil
				})
				if err != nil {
					return 0, err
				}
				defer l.Close()
				_, err = l.Append(rawLine{I: next})
				return kept, err
			},
		},
		{
			name:   "checkpoint",
			header: `{"v":1,"name":"torn","fingerprint":"` + spec.Fingerprint() + `","total":` + marshal(total) + `}`,
			entry: func(i int) string {
				return `{"i":` + marshal(i) + `,"o":` + marshal(harness.Outcome{}) + `}`
			},
			reopen: func(t *testing.T, path string, next int) (int, error) {
				ck, err := harness.OpenCheckpointFile(path, spec, total, true)
				if err != nil {
					return 0, err
				}
				defer ck.Close()
				return len(ck.Loaded()), ck.Append(next, harness.Outcome{})
			},
		},
		{
			name: "store", header: `{"v":1}`,
			entry: func(i int) string { return marshal(rec(i)) },
			reopen: func(t *testing.T, path string, next int) (int, error) {
				st, err := resultstore.Open(path)
				if err != nil {
					return 0, err
				}
				defer st.Close()
				recs, err := st.Query(resultstore.Filter{})
				if err != nil {
					return 0, err
				}
				return len(recs), st.Append(rec(next))
			},
		},
	}
}

// TestTornTail is the one recovery rule, checked through the bare log and
// through both files built on it: whatever a kill left at the end of the
// file, open keeps the lines before it, cuts the file back to them, and
// the next append starts on a line of its own.
func TestTornTail(t *testing.T) {
	const n = 6
	for _, o := range owners(t) {
		var lines []string
		for i := 0; i < n; i++ {
			lines = append(lines, o.entry(i)+"\n")
		}
		hdr := o.header + "\n"
		all := hdr + strings.Join(lines, "")
		last := lines[n-1]
		for _, tc := range []struct {
			name string
			data string
			kept int
		}{
			{"intact", all, n},
			{"last newline missing", all[:len(all)-1], n - 1},
			{"last line cut mid-JSON", all[:len(all)-len(last)/2], n - 1},
			{"garbage line mid-file", hdr + lines[0] + lines[1] + "}garbage{\n" + strings.Join(lines[2:], ""), 2},
			{"header only", hdr, 0},
			{"header without its newline", o.header, 0},
			{"empty file", "", 0},
		} {
			t.Run(o.name+"/"+tc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log.jsonl")
				if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
					t.Fatal(err)
				}
				kept, err := o.reopen(t, path, n)
				if err != nil {
					t.Fatal(err)
				}
				if kept != tc.kept {
					t.Errorf("kept %d lines, want %d", kept, tc.kept)
				}
				want := hdr + strings.Join(lines[:tc.kept], "") + o.entry(n) + "\n"
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != want {
					t.Errorf("file after open and one append:\n%q\nwant:\n%q", got, want)
				}
				// What was kept and what was appended both survive the
				// next open.
				if again, err := o.reopen(t, path, n+1); err != nil || again != tc.kept+1 {
					t.Errorf("second open kept %d lines (%v), want %d", again, err, tc.kept+1)
				}
			})
		}
	}
}

// TestForeignHeaderRefused: a complete header the owner rejects is not a
// torn tail — Open fails and the file keeps every byte.
func TestForeignHeaderRefused(t *testing.T) {
	for _, o := range owners(t) {
		path := filepath.Join(t.TempDir(), o.name+".jsonl")
		data := `{"v":99,"fingerprint":"someone else's"}` + "\n" + o.entry(0) + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := o.reopen(t, path, 1); err == nil {
			t.Errorf("%s: foreign header accepted", o.name)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Errorf("%s: refused file was modified: %q", o.name, got)
		}
	}
}

// TestAppendOffsetsAndBadValue: Append reports where each line landed,
// readable back through ReadAt, and a value that cannot be marshalled
// writes nothing.
func TestAppendOffsetsAndBadValue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := jsonl.Open(path, rawLine{I: -1}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	offs, err := l.Append(rawLine{I: 1}, rawLine{I: 22}, rawLine{I: 333})
	if err != nil || len(offs) != 3 {
		t.Fatalf("Append = %v, %v", offs, err)
	}
	for i, want := range []string{`{"i":1}`, `{"i":22}`, `{"i":333}`} {
		buf := make([]byte, len(want)+1)
		if _, err := l.ReadAt(buf, offs[i]); err != nil || string(buf) != want+"\n" {
			t.Errorf("line %d at offset %d = %q, %v", i, offs[i], buf, err)
		}
	}
	size := l.Size()
	if _, err := l.Append(rawLine{I: 4}, func() {}); err == nil {
		t.Error("unmarshallable value accepted")
	}
	if st, _ := os.Stat(path); l.Size() != size || st.Size() != size {
		t.Errorf("failed Append moved the log from %d to %d (file %d)", size, l.Size(), st.Size())
	}
}
