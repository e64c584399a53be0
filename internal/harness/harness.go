// Package harness is the unified experiment engine shared by every
// binary and by the internal/experiments registry: a declarative Spec
// (protocol, graph family, sizes, k-mode, field, trials, seed) expands
// into a deterministic work-list of Trials, and a worker pool runs the
// trials across cores with byte-identical output for any -parallel
// value.
//
// Determinism contract: every Trial carries a seed derived only from the
// Spec's root seed and the trial's (size, index) coordinates, never from
// scheduling order. Results are collected into the expanded work-list
// order before anything is rendered, so CSV/JSON output is a pure
// function of (Spec, seed) — the worker count, per-trial timing, and
// checkpoint/resume history are all invisible in the output bytes.
//
// One way into a trial: Execute launches it, GossipSpec.validate screens
// it (the only place a spec is refused — per cell in Spec.Expand, so
// before a pool or a listener starts, and per trial in Execute), Runner
// fans a Spec's trials out. internal/experiments (the paper's artifacts,
// as Spec literals plus renderers), the binaries and the root algossip
// package (Run/RunDetailed) all come in that way, so every entry point
// replays the same fixed-seed trajectories and refuses the same specs.
package harness
