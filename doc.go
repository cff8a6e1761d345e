// Package noceval is an on-chip network evaluation framework: a Go
// reproduction of "On-Chip Network Evaluation Framework" (Kim, Heo, Lee,
// Huh, Kim — SC 2010).
//
// The library lives under internal/: a cycle-accurate VC-router network
// simulator (internal/router, internal/network) with the Table I parameter
// space (internal/topology, internal/routing, internal/traffic), the
// open-loop and closed-loop measurement methodologies (internal/openloop,
// internal/closedloop), a trace-driven replay engine (internal/trace), an
// execution-driven CMP simulator standing in for Simics/GEMS+Garnet
// (internal/cmp, internal/workload), and the evaluation framework tying
// them together (internal/core).
//
// Executables: cmd/noceval runs single experiments; cmd/figures
// regenerates every table and figure of the paper. Runnable examples live
// under examples/. The root-level benchmarks (bench_test.go) provide one
// testing.B entry per paper table/figure.
//
// # Observability
//
// internal/obs is the in-flight observability layer: a metrics registry
// (counters, gauges, histograms), cycle-sampled per-router telemetry with
// CSV/JSON export and congestion heatmaps, a flit-lifecycle tracer with
// Chrome trace-event export, and progress/profiling hooks. It attaches to
// an openloop or batch experiment spec through ExperimentSpec.Hooks, which
// the -metrics/-trace/-progress flags of cmd/noceval set. The layer is
// opt-in and nil-safe: with no observer attached the per-cycle hot path
// pays a nil check and performs zero heap allocations (obs_guard_test.go
// pins this).
package noceval
