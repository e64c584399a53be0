package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCheckpoint throws arbitrary bytes at a resuming checkpoint open:
// a torn or corrupt JSONL file must never panic — it either resumes the
// valid prefix or reports an error. This is the recovery path a killed
// sweep depends on, so graceful degradation is load-bearing.
func FuzzReadCheckpoint(f *testing.F) {
	spec := &Spec{Name: "fuzz", Graph: "line", Sizes: []int{8}, Trials: 2, Seed: 5}
	_, trials, err := spec.Expand()
	if err != nil {
		f.Fatal(err)
	}
	total := len(trials)
	header := `{"v":1,"name":"fuzz","fingerprint":"` + spec.Fingerprint() + `","total":2}` + "\n"

	f.Add([]byte(header + `{"i":0,"o":{"result":{"Rounds":7,"Completed":true}}}` + "\n"))
	f.Add([]byte(header + `{"i":0,"o":{}}` + "\n" + `{"i":1,"o":{"result"`)) // torn tail
	f.Add([]byte(header + `{"i":99,"o":{}}` + "\n"))                         // out of range
	f.Add([]byte(`{"v":2,"fingerprint":"x","total":2}` + "\n"))              // wrong version
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpointFile(path, spec, total, true)
		if err != nil {
			return // rejecting corrupt input is fine; panicking is not
		}
		loaded := len(ck.Loaded())
		for i := range ck.Loaded() {
			if i < 0 || i >= total {
				t.Fatalf("accepted out-of-range trial index %d", i)
			}
		}
		// Whatever was kept is line-aligned: an entry appended after it
		// and everything before it survive a second resume.
		_, had := ck.Loaded()[0]
		if err := ck.Append(0, Outcome{}); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		ck, err = OpenCheckpointFile(path, spec, total, true)
		if err != nil {
			t.Fatalf("second resume rejected what the first accepted: %v", err)
		}
		defer ck.Close()
		want := loaded
		if !had {
			want++
		}
		if len(ck.Loaded()) != want {
			t.Fatalf("second resume replayed %d entries, want %d", len(ck.Loaded()), want)
		}
	})
}
