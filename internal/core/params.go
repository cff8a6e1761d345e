// Package core is the on-chip network evaluation framework itself — the
// paper's contribution. It provides one configuration schema covering all
// of Table I, runners for each evaluation methodology (open-loop,
// closed-loop batch and barrier models, trace-driven replay, and the
// execution-driven CMP), the enhanced batch-model parameter derivation of
// §IV-C and §V (NAR, reply latency, kernel traffic measured from
// execution-driven characterization runs), and the cross-methodology
// correlation procedures behind Figs 5, 8, 15, 19 and 22.
package core

import (
	"fmt"
	"os"
	"strconv"

	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

// NetworkParams is the Table I parameter schema in plain values, suitable
// for flag parsing and sweep enumeration.
type NetworkParams struct {
	Topology    string // e.g. "mesh8x8", "torus8x8", "ring64"
	VCs         int
	BufDepth    int   // q
	RouterDelay int64 // tr
	Routing     string
	Arb         string // "rr" or "age"
	Pattern     string // traffic pattern name
	Sizes       string // "single" or "bimodal"
	// SAIterations must be 0 or 1: the router allocates its switch in one
	// separable pass. The field stays because it is part of every cache
	// key and spec hash.
	SAIterations int
	Seed         uint64
	// Fault, when non-nil, enables fault injection and recovery (see
	// internal/fault). The pointer is json-omitted when nil so fault-free
	// configurations keep their pre-existing experiment-cache keys, while
	// every faulted configuration hashes under its own key.
	Fault *fault.Params `json:",omitempty"`
	// Shards steps the network as that many concurrent spatial tiles
	// (network.Config.Shards); 0/1 is the sequential loop. Sharding is
	// bit-identical to sequential by construction, so the runners
	// normalize it out of experiment-cache keys — the same run at any
	// shard count hits the same cache entry. json-omitted to keep
	// pre-existing keys and goldens byte-stable.
	Shards int `json:",omitempty"`
	// Classes, when non-empty, splits the offered traffic into QoS
	// classes (index 0 = highest priority): each class gets its own VC
	// partition in the routers and injects Rate*Share flits/cycle/node
	// with its own pattern and size mix. json-omitted (and normalized to
	// nil in cache keys) so class-free configurations keep their
	// pre-existing experiment-cache keys and golden figures byte-stable.
	Classes []ClassSpec `json:",omitempty"`
	// ClassArb selects the cross-class arbitration policy when Classes is
	// set: "" or "strict" for strict priority, "classrr" for class-blind
	// round-robin over the partitioned VCs.
	ClassArb string `json:",omitempty"`
}

// ClassSpec is the declarative, JSON-serializable form of one QoS traffic
// class. Empty Pattern/Sizes inherit the top-level NetworkParams values.
type ClassSpec struct {
	Name    string  `json:"name"`
	Share   float64 `json:"share"`
	Pattern string  `json:"pattern,omitempty"`
	Sizes   string  `json:"sizes,omitempty"`
}

// cacheNorm returns the parameters as they enter experiment-cache keys:
// Shards is zeroed because sharding is bit-identical to sequential — the
// same experiment at any shard count must hit the same cache entry (and
// a cached result must satisfy a later sharded request). An empty (but
// non-nil) Classes slice is normalized to nil so both spellings of "no
// QoS classes" share the pre-existing class-free cache keys; non-empty
// Classes intentionally hash to new keys, since the VC partition changes
// the simulated behavior.
func (p NetworkParams) cacheNorm() NetworkParams {
	p.Shards = 0
	if len(p.Classes) == 0 {
		p.Classes = nil
	}
	return p
}

// EnvShards reads the NOCEVAL_SHARDS environment variable — how the CI
// determinism matrix (and local runs) push a shard count into every
// network a test builds through the flag defaults or explicit opt-in.
// Returns 0 (sequential) when unset or malformed.
func EnvShards() int {
	v := os.Getenv("NOCEVAL_SHARDS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Baseline returns the bold values of Table I: an 8x8 mesh with 2 VCs,
// 16-flit buffers, 1-cycle routers, DOR, round-robin arbitration,
// single-flit packets, uniform random traffic. The shard count comes
// from NOCEVAL_SHARDS (0 when unset): sharding is bit-identical by
// construction, so the CI determinism matrix can re-run every figure,
// golden, and test built on Baseline with the network split into tiles
// and demand unchanged output.
func Baseline() NetworkParams {
	return NetworkParams{
		Topology:    "mesh8x8",
		VCs:         2,
		BufDepth:    16,
		RouterDelay: 1,
		Routing:     "dor",
		Arb:         "rr",
		Pattern:     "uniform",
		Sizes:       "single",
		Seed:        1,
		Shards:      EnvShards(),
	}
}

// String returns a compact label for figure legends.
func (p NetworkParams) String() string {
	s := fmt.Sprintf("%s/%s tr=%d q=%d v=%d %s", p.Topology, p.Routing, p.RouterDelay, p.BufDepth, p.VCs, p.Pattern)
	if len(p.Classes) > 0 {
		s += fmt.Sprintf(" qos=%d", len(p.Classes))
	}
	if p.Fault.Enabled() {
		s += fmt.Sprintf(" fault(c=%g,d=%g)", p.Fault.CorruptRate, p.Fault.DropRate)
	}
	return s
}

// Build materializes the network configuration.
func (p NetworkParams) Build() (network.Config, error) {
	topo, err := topology.ByName(p.Topology)
	if err != nil {
		return network.Config{}, err
	}
	alg, err := routing.ByName(p.Routing)
	if err != nil {
		return network.Config{}, err
	}
	arb := router.RoundRobin
	switch p.Arb {
	case "", "rr":
	case "age":
		arb = router.AgeBased
	default:
		return network.Config{}, fmt.Errorf("core: unknown arbitration %q", p.Arb)
	}
	if p.SAIterations != 0 && p.SAIterations != 1 {
		return network.Config{}, fmt.Errorf("core: SAIterations must be 0 or 1 (switch allocation is single-pass), got %d", p.SAIterations)
	}
	classArb := router.StrictPriority
	switch p.ClassArb {
	case "", "strict":
	case "classrr":
		classArb = router.ClassRoundRobin
	default:
		return network.Config{}, fmt.Errorf("core: unknown class arbitration %q", p.ClassArb)
	}
	cfg := network.Config{
		Topo:    topo,
		Routing: alg,
		Router: router.Config{
			VCs:      p.VCs,
			BufDepth: p.BufDepth,
			Delay:    p.RouterDelay,
			Arb:      arb,
			Classes:  len(p.Classes),
			ClassArb: classArb,
		},
		Seed:   p.Seed,
		Fault:  p.Fault,
		Shards: p.Shards,
	}
	if err := cfg.Validate(); err != nil {
		return network.Config{}, err
	}
	return cfg, nil
}

// BuildPattern returns the traffic pattern named in the parameters.
func (p NetworkParams) BuildPattern() (traffic.Pattern, error) {
	name := p.Pattern
	if name == "" {
		name = "uniform"
	}
	return traffic.ByName(name)
}

// BuildSizes returns the packet-size distribution named in the parameters.
func (p NetworkParams) BuildSizes() (traffic.SizeDist, error) {
	return sizesByName(p.Sizes)
}

// sizesByName maps a size-mix name to its distribution.
func sizesByName(name string) (traffic.SizeDist, error) {
	switch name {
	case "", "single":
		return traffic.FixedSize(1), nil
	case "bimodal":
		return traffic.DefaultBimodal(), nil
	default:
		return nil, fmt.Errorf("core: unknown packet size mix %q", name)
	}
}

// BuildClasses materializes the QoS class mix. Classes with empty
// Pattern/Sizes keep nil fields, which the open-loop runner fills from the
// top-level pattern and size distribution.
func (p NetworkParams) BuildClasses() ([]traffic.Class, error) {
	if len(p.Classes) == 0 {
		return nil, nil
	}
	out := make([]traffic.Class, len(p.Classes))
	for i, cs := range p.Classes {
		cl := traffic.Class{Name: cs.Name, Share: cs.Share}
		if cs.Pattern != "" {
			pat, err := traffic.ByName(cs.Pattern)
			if err != nil {
				return nil, fmt.Errorf("core: class %q: %w", cs.Name, err)
			}
			cl.Pattern = pat
		}
		if cs.Sizes != "" {
			sd, err := sizesByName(cs.Sizes)
			if err != nil {
				return nil, fmt.Errorf("core: class %q: %w", cs.Name, err)
			}
			cl.Sizes = sd
		}
		out[i] = cl
	}
	return out, nil
}
