// Package fault implements the deterministic, seed-driven fault injector
// used by the resilience evaluation: transient link faults (per-flit
// corruption and head-flit drops at a configurable per-delivery rate), link
// outage windows during which a channel delivers nothing and its credits
// freeze, and hard router kills. The companion NIC type (nic.go) gives
// terminals end-to-end detection and bounded exponential-backoff
// retransmission so workloads can degrade gracefully instead of wedging.
//
// Everything is driven by the injector's private xoshiro stream, so a
// faulted run is a pure function of (config, seed): the same configuration
// replays the same fault sequence at every shard count. With a nil or all-zero Params the network layer builds
// no injector at all and the simulation is bit-identical to a fault-free
// build — enforced by the zero-alloc guard and the golden-figure gate.
package fault

import (
	"fmt"
	"sort"

	"noceval/internal/obs"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// Outage takes one directed channel down for the half-open cycle window
// [From, Until): the channel delivers no flits and returns no credits while
// down; traffic already inside the channel pipeline is frozen in place and
// resumes when the window closes.
type Outage struct {
	Node  int   `json:",omitempty"` // router whose output channel fails
	Port  int   `json:",omitempty"` // network output port of the channel
	From  int64 `json:",omitempty"`
	Until int64 `json:",omitempty"`
}

// Kill removes a router from the network at cycle At: its buffered and
// in-flight flits are discarded (with credits bounced upstream so flow
// control stays consistent), and from then on it accepts nothing — flits
// delivered into it are dropped and its terminal can neither send nor
// receive.
type Kill struct {
	Node int   `json:",omitempty"`
	At   int64 `json:",omitempty"`
}

// Params configures fault injection and the recovery NIC. The zero value
// (and a nil pointer) means "no faults": the network builds no injector and
// the hot path is untouched. All fields are omitempty so experiment-cache
// keys of fault-free configs remain byte-identical to pre-fault builds.
type Params struct {
	// CorruptRate is the per-link-delivery probability that a flit is
	// corrupted in flight. Corruption is detected by the destination NIC's
	// per-flit checksum when the tail arrives: the packet is discarded
	// there, and recovery (if any) is by source timeout.
	CorruptRate float64 `json:",omitempty"`
	// DropRate is the per-link-delivery probability that a head flit is
	// lost. The whole packet dies: its remaining flits are discarded at
	// their next link crossing with credits bounced to the sender, which
	// keeps wormhole flow control consistent without modeling partial
	// packets downstream.
	DropRate float64 `json:",omitempty"`

	Outages []Outage `json:",omitempty"`
	Kills   []Kill   `json:",omitempty"`

	// Timeout enables the recovery NIC: a source that has not seen its
	// packet accepted at the destination within Timeout cycles retransmits
	// it. 0 disables the NIC entirely — losses are then silent, as in a
	// network without end-to-end protection.
	Timeout int64 `json:",omitempty"`
	// MaxRetries bounds retransmissions per packet; once exhausted the
	// packet is abandoned and reported through the dead-drop callback.
	MaxRetries int `json:",omitempty"`
	// RetryCap is the MSHR-style per-node cap on packets concurrently in
	// retransmission; further timeouts queue until a slot frees. 0 means
	// unlimited.
	RetryCap int `json:",omitempty"`
	// Seed, when nonzero, seeds the injector's private RNG; otherwise it is
	// derived from the network seed.
	Seed uint64 `json:",omitempty"`
}

// Enabled reports whether the configuration injects any fault or arms the
// recovery NIC. A disabled configuration must behave exactly like a nil one.
func (p *Params) Enabled() bool {
	if p == nil {
		return false
	}
	return p.CorruptRate > 0 || p.DropRate > 0 ||
		len(p.Outages) > 0 || len(p.Kills) > 0 || p.Timeout > 0
}

// Validate reports configuration errors against the given topology.
func (p *Params) Validate(t *topology.Topology) error {
	if p == nil {
		return nil
	}
	if p.CorruptRate < 0 || p.CorruptRate > 1 {
		return fmt.Errorf("fault: CorruptRate %g outside [0,1]", p.CorruptRate)
	}
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("fault: DropRate %g outside [0,1]", p.DropRate)
	}
	for i, o := range p.Outages {
		if o.Node < 0 || o.Node >= t.N {
			return fmt.Errorf("fault: outage %d: node %d outside [0,%d)", i, o.Node, t.N)
		}
		if o.Port < 0 || o.Port >= t.Radix {
			return fmt.Errorf("fault: outage %d: port %d is not a network port (radix %d)", i, o.Port, t.Radix)
		}
		if !t.LinkAt(o.Node, o.Port).Connected() {
			return fmt.Errorf("fault: outage %d: node %d port %d is unconnected", i, o.Node, o.Port)
		}
		if o.From < 0 || o.Until <= o.From {
			return fmt.Errorf("fault: outage %d: bad window [%d,%d)", i, o.From, o.Until)
		}
	}
	for i, k := range p.Kills {
		if k.Node < 0 || k.Node >= t.N {
			return fmt.Errorf("fault: kill %d: node %d outside [0,%d)", i, k.Node, t.N)
		}
		if k.At < 0 {
			return fmt.Errorf("fault: kill %d: negative cycle %d", i, k.At)
		}
	}
	if p.Timeout < 0 {
		return fmt.Errorf("fault: negative Timeout %d", p.Timeout)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative MaxRetries %d", p.MaxRetries)
	}
	if p.RetryCap < 0 {
		return fmt.Errorf("fault: negative RetryCap %d", p.RetryCap)
	}
	return nil
}

// Stats aggregates the fault and recovery counters of one run.
type Stats struct {
	CorruptInjected int64 `json:",omitempty"` // flits corrupted on links
	DropInjected    int64 `json:",omitempty"` // head flits dropped on links
	Detected        int64 `json:",omitempty"` // corrupt packets rejected by destination checksum
	DeadFlits       int64 `json:",omitempty"` // flits discarded by faults (drops, outg. wormholes, kills)
	DeadPackets     int64 `json:",omitempty"` // packets that died inside the network
	Duplicates      int64 `json:",omitempty"` // redundant deliveries discarded by receiver dedup
	Tracked         int64 `json:",omitempty"` // packets the NIC watched
	Acked           int64 `json:",omitempty"` // packets the NIC saw accepted
	Retried         int64 `json:",omitempty"` // retransmissions issued
	Abandoned       int64 `json:",omitempty"` // packets given up after MaxRetries
	Outstanding     int   `json:",omitempty"` // NIC entries unresolved at run end
	// DeliveredFraction is the share of workload transactions that
	// completed; filled in by the run mode (1 when nothing was lost).
	DeliveredFraction float64 `json:",omitempty"`
}

// Injector draws the transient fault decisions and owns the outage/kill
// schedule. It is created only for enabled Params; a nil *Injector is never
// consulted (the network keeps its fault hooks behind one nil check).
type Injector struct {
	p   Params
	rng *sim.RNG

	// bounds holds every cycle at which the static schedule changes state
	// (outage edges, kills), sorted ascending; idx is the first bound not
	// yet reached. ScheduleDue is then a two-compare check per cycle, and
	// evaluating the schedule lazily from time predicates keeps it exact
	// across clock fast-forwards.
	bounds []int64
	idx    int

	corruptInjected int64
	dropInjected    int64

	// mInjections publishes fired injections into the process-wide
	// registry; nil (a pure nil check per fired fault) when none is
	// installed at construction time.
	mInjections *obs.Counter
}

// NewInjector builds the injector for a network with the given node count.
// seed is the already-derived RNG seed (Params.Seed when set, otherwise a
// mix of the network seed).
func NewInjector(p Params, seed uint64) *Injector {
	in := &Injector{p: p, rng: sim.NewRNG(seed)}
	in.mInjections = obs.Default().Counter("fault.injections")
	for _, o := range p.Outages {
		in.bounds = append(in.bounds, o.From, o.Until)
	}
	for _, k := range p.Kills {
		in.bounds = append(in.bounds, k.At)
	}
	sort.Slice(in.bounds, func(i, j int) bool { return in.bounds[i] < in.bounds[j] })
	return in
}

// Params returns the injector's configuration.
func (in *Injector) Params() Params { return in.p }

// ScheduleDue reports whether an outage edge or kill has been reached and
// not yet applied. It is the injector's only per-cycle cost on runs with a
// static schedule but no transient rates.
func (in *Injector) ScheduleDue(now int64) bool {
	return in.idx < len(in.bounds) && now >= in.bounds[in.idx]
}

// AdvanceSchedule marks every boundary up to and including now as applied.
func (in *Injector) AdvanceSchedule(now int64) {
	for in.idx < len(in.bounds) && in.bounds[in.idx] <= now {
		in.idx++
	}
}

// OutageActive reports whether outage o covers cycle now.
func OutageActive(o Outage, now int64) bool { return o.From <= now && now < o.Until }

// DrawDrop draws the head-flit drop decision for one link delivery. It
// consumes randomness only when DropRate is positive, so configurations
// without drops share the corruption stream of drop-free ones.
func (in *Injector) DrawDrop() bool {
	if in.p.DropRate <= 0 {
		return false
	}
	if in.rng.Bernoulli(in.p.DropRate) {
		in.dropInjected++
		in.mInjections.Inc()
		return true
	}
	return false
}

// DrawCorrupt draws the corruption decision for one link delivery.
func (in *Injector) DrawCorrupt() bool {
	if in.p.CorruptRate <= 0 {
		return false
	}
	if in.rng.Bernoulli(in.p.CorruptRate) {
		in.corruptInjected++
		in.mInjections.Inc()
		return true
	}
	return false
}

// Injected returns the transient-fault injection counters.
func (in *Injector) Injected() (corrupt, drop int64) {
	return in.corruptInjected, in.dropInjected
}
