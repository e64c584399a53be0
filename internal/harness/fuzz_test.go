package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCheckpoint throws arbitrary bytes at the checkpoint parser: a
// torn or corrupt JSONL file must never panic — it either resumes the
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
		loaded, valid, err := readCheckpoint(path, spec, total)
		if err != nil {
			return // rejecting corrupt input is fine; panicking is not
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
		for i := range loaded {
			if i < 0 || i >= total {
				t.Fatalf("accepted out-of-range trial index %d", i)
			}
		}
		// Whatever was accepted must survive a resume round trip through
		// OpenCheckpointFile (which truncates to the valid prefix).
		ck, err := OpenCheckpointFile(path, spec, total, true)
		if err != nil {
			t.Fatalf("OpenCheckpointFile rejected what readCheckpoint accepted: %v", err)
		}
		defer ck.Close()
		if len(ck.Loaded()) != len(loaded) {
			t.Fatalf("resume replayed %d entries, read %d", len(ck.Loaded()), len(loaded))
		}
	})
}
