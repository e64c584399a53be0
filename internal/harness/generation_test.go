package harness

import (
	"errors"
	"testing"

	"algossip/internal/core"
	"algossip/internal/graph"
	"algossip/internal/rlnc"
)

// TestGenSizeValidation pins the generation-size error paths at both
// validation layers: Execute (per-trial) and Spec.Expand (per-cell,
// up-front). An invalid size must surface as the typed rlnc.GenSizeError
// so flag-parsing layers can distinguish it from other failures.
func TestGenSizeValidation(t *testing.T) {
	g := graph.Complete(16)
	execCases := []struct {
		name    string
		genSize int
		k       int
		wantErr bool
	}{
		{"off", 0, 8, false},
		{"one", 1, 8, false},
		{"equal-k", 8, 8, false},
		{"oversized", 9, 8, true},
		{"negative", -1, 8, true},
	}
	for _, c := range execCases {
		t.Run("execute/"+c.name, func(t *testing.T) {
			spec := GossipSpec{Graph: g, K: c.k, GenSize: c.genSize}
			_, err := Execute(spec, ProtocolUniformAG, 1)
			if !c.wantErr {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var gse *rlnc.GenSizeError
			if !errors.As(err, &gse) {
				t.Fatalf("error %v is not a *rlnc.GenSizeError", err)
			}
			if gse.GenSize != c.genSize {
				t.Fatalf("error reports size %d, want %d", gse.GenSize, c.genSize)
			}
		})
	}

	// Expand validates against every cell's k before any trial runs: with
	// kmode half, sizes 16 and 8 give k=8 and k=4, so g=6 fits the first
	// cell but not the second.
	t.Run("expand/oversized-cell", func(t *testing.T) {
		spec := Spec{Graph: "complete", Sizes: []int{16, 8}, GenSize: 6, Trials: 1}
		_, _, err := spec.Expand()
		var gse *rlnc.GenSizeError
		if !errors.As(err, &gse) {
			t.Fatalf("error %v is not a *rlnc.GenSizeError", err)
		}
		if gse.GenSize != 6 || gse.K != 4 {
			t.Fatalf("error reports g=%d k=%d, want g=6 k=4", gse.GenSize, gse.K)
		}
	})
	t.Run("expand/negative", func(t *testing.T) {
		spec := Spec{Graph: "complete", Sizes: []int{16}, GenSize: -3, Trials: 1}
		_, _, err := spec.Expand()
		var gse *rlnc.GenSizeError
		if !errors.As(err, &gse) {
			t.Fatalf("error %v is not a *rlnc.GenSizeError", err)
		}
	})
	t.Run("expand/fits-all-cells", func(t *testing.T) {
		spec := Spec{Graph: "complete", Sizes: []int{16, 8}, GenSize: 4, Trials: 1}
		if _, _, err := spec.Expand(); err != nil {
			t.Fatalf("g=4 fits every cell, got %v", err)
		}
	})
}

// TestGenerationModeCombinations pins what generation mode combines with:
// it is one configuration of the uniform-AG state machine, so loss
// injection, dynamic topologies and one-way actions all complete (here
// with real payloads), while tree protocols still refuse it.
func TestGenerationModeCombinations(t *testing.T) {
	g := graph.Complete(16)
	base := GossipSpec{Graph: g, K: 8, Q: 256, GenSize: 3, PayloadLen: 4}

	if _, err := Execute(base, ProtocolTAGRR, 1); err == nil {
		t.Error("generation-mode TAG accepted")
	}
	dyn, err := ParseDynamics("edge:rate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	lossy, dynamic, push := base, base, base
	lossy.LossRate = 0.2
	dynamic.Dynamics = dyn
	push.Action = core.Push
	for name, spec := range map[string]GossipSpec{"loss": lossy, "dynamic": dynamic, "push": push} {
		o, err := Execute(spec, ProtocolUniformAG, 1)
		if err != nil || !o.Result.Completed {
			t.Errorf("generations x %s: completed=%v err=%v", name, o.Result.Completed, err)
		}
		if name == "loss" && o.Traffic.Dropped == 0 {
			t.Error("generations x loss dropped nothing")
		}
	}
}
