package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the only seed golden.json pins; other seeds keep the
// self-checks (decoded = sent, fabric CSV = local CSV, traced = untraced
// rounds) but skip the pin.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden is bench/golden.json: for goldenSeed at scale 1, the simulated
// statistics of every pinned rep of every workload, one []cellStat per
// rep. A simulator-speed change must leave them identical.
type golden struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string][][]cellStat `json:"workloads"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	if g.Workloads == nil {
		g.Workloads = map[string][][]cellStat{}
	}
	return g, nil
}

// pinMismatch describes how got differs from the pin, comparing only what
// both sides know: rounds always; traffic and digest when both recorded
// them (Disseminate returns no traffic, the live cluster no rounds).
func pinMismatch(want, got cellStat) string {
	switch {
	case want.Cell != got.Cell || want.Trials != got.Trials:
		return fmt.Sprintf("cell %s x%d, pinned %s x%d", got.Cell, got.Trials, want.Cell, want.Trials)
	case want.Rounds != got.Rounds:
		return fmt.Sprintf("cell %s: rounds %d, pinned %d", got.Cell, got.Rounds, want.Rounds)
	case want.Sent != 0 && got.Sent != 0 && (want.Sent != got.Sent || want.Helpful != got.Helpful || want.Useless != got.Useless):
		return fmt.Sprintf("cell %s: traffic sent/helpful/useless %d/%d/%d, pinned %d/%d/%d", got.Cell,
			got.Sent, got.Helpful, got.Useless, want.Sent, want.Helpful, want.Useless)
	case want.Digest != "" && got.Digest != "" && want.Digest != got.Digest:
		return fmt.Sprintf("cell %s: CSV sha256 %s, pinned %s", got.Cell, got.Digest, want.Digest)
	}
	return ""
}

// checkGolden compares res.Cells (the pinned reps' statistics) with the
// pin, or with update rewrites the pin from them and prints the diff. A
// mismatch marks every trial of the run failed.
func checkGolden(name string, res *result, update bool) error {
	if update {
		return updateGolden(name, res.Cells)
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	pins := g.Workloads[name]
	res.Golden = "ok"
	for i, cells := range res.Cells {
		if i >= len(pins) || len(pins[i]) != len(cells) {
			res.Golden = "mismatch"
			res.Why = fmt.Sprintf("golden: rep %d is not pinned (run with -update-golden)", i)
			break
		}
		for j, c := range cells {
			if diff := pinMismatch(pins[i][j], c); diff != "" {
				res.Golden = "mismatch"
				res.Why = fmt.Sprintf("golden: rep %d %s", i, diff)
				break
			}
		}
		if res.Golden != "ok" {
			break
		}
	}
	if res.Golden != "ok" {
		res.Failed = res.Attempted
	}
	return nil
}

// updateGolden merges cells into the pin (keeping fields this run does
// not know, such as a traced run's traffic under a timed run's rounds),
// prints every changed cell and rewrites bench/golden.json.
func updateGolden(name string, reps [][]cellStat) error {
	// Read the file, not the embedded copy: in an all-workloads update
	// each workload's process rewrites the file the previous one wrote.
	path := filepath.Join("bench", "golden.json")
	g := &golden{Workloads: map[string][][]cellStat{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	pins := g.Workloads[name]
	for i, cells := range reps {
		if i >= len(pins) {
			pins = append(pins, make([]cellStat, len(cells)))
		}
		if len(pins[i]) != len(cells) {
			pins[i] = make([]cellStat, len(cells))
		}
		for j, c := range cells {
			old := pins[i][j]
			merged := c
			if c.Sent == 0 && old.Cell == c.Cell && old.Rounds == c.Rounds {
				merged.Sent, merged.Helpful, merged.Useless = old.Sent, old.Helpful, old.Useless
			}
			if c.Digest == "" && old.Cell == c.Cell && old.Rounds == c.Rounds {
				merged.Digest = old.Digest
			}
			if merged != old {
				fmt.Printf("golden %s rep %d: %+v -> %+v\n", name, i, old, merged)
			}
			pins[i][j] = merged
		}
	}
	g.Seed = goldenSeed
	g.Workloads[name] = pins
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
