// Sharded cycle loop: the network is partitioned into contiguous spatial
// tiles (topology.Partition), each owned by one member of a resident
// worker gang, and every cycle is stepped as a fixed phase schedule with
// barriers at the phase boundaries:
//
//	deliver (parallel: each tile pops its own delay lines)
//	  barrier
//	apply ejections + cross-tile flits (serial, member 0)
//	  barrier
//	inject + compute (parallel)
//
// The schedule is sound by conservative lookahead: every cross-tile link
// carries at least one cycle of delay (wireShards asserts it), so a flit
// forwarded by tile A in cycle c cannot influence tile B before cycle
// c+1 — buffering it across the barrier and landing it before the next
// cycle's compute phase reproduces the sequential semantics exactly.
// Every router pushes its flits and the credits it returns onto its own
// tile's lines, so the compute phase writes no other tile's state; a due
// credit, applied in the deliver phase by the tile that issued it, is the
// one write into another tile's router, to an output VC counter nothing
// else touches in that phase. See deliverTile and DESIGN §12 for the
// ordering arguments that make the schedule bit-identical to the
// sequential sweep.
package network

import (
	"fmt"

	"noceval/internal/obs"
	"noceval/internal/par"
	"noceval/internal/topology"
)

// wireShards starts the worker gang of a freshly built multi-tile network.
// Called from New only when the partition produced >1 tile.
func (n *Network) wireShards(parts []topology.Tile) {
	if d := n.cfg.Topo.MinCrossDelay(parts); d < 1 {
		panic(fmt.Sprintf("network: cross-tile link with delay %d; sharding needs >= 1 cycle of lookahead", d))
	}
	n.gang = par.NewGang(len(n.tiles))
	// The gang's per-cycle work, bound once: a closure made per cycle
	// would be an allocation per Step. Members read the cycle from the
	// clock, which only ticks after the wave.
	n.computePhase = func(ti int) {
		now := n.clock.Now()
		n.injectTile(now, ti)
		n.stepTile(now, ti)
	}
	n.cyclePhases = func(ti int) {
		now := n.clock.Now()
		n.deliverTile(now, ti)
		n.gang.Barrier()
		if ti == 0 {
			n.applyDeliveries(now)
		}
		n.gang.Barrier()
		n.computePhase(ti)
	}
	obs.Default().Gauge("shard.count").Set(float64(len(n.tiles)))
}

// stepSharded advances one cycle on the gang. Fault injection draws from
// the shared RNG during the deliver phase, so faulted networks keep the
// pre-step and deliver phases serial (preserving draw order) and
// parallelize only inject+compute; fault-free networks run the full
// schedule.
func (n *Network) stepSharded() {
	now := n.clock.Now()
	if n.faults != nil {
		n.faultPreStep(now)
		n.deliver(now)
		n.gang.Run(n.computePhase)
	} else {
		n.gang.Run(n.cyclePhases)
	}
	if n.obs != nil && n.obs.ShouldSample(now) {
		n.sample(now)
	}
	n.clock.Tick()
}

// Close releases the sharded network's resident workers; idempotent, and
// a no-op for a sequential network. Run modes close their network when
// they finish; an unclosed network's workers are reclaimed by the gang's
// finalizer.
func (n *Network) Close() {
	if n.gang != nil {
		n.gang.Close()
	}
}

// ShardStats reports the tile count, the number of sharded cycle waves
// dispatched, and the mean sampled load imbalance (1 = perfectly
// balanced; 0 before the first sample). A sequential network reports
// {1, 0, 0}.
func (n *Network) ShardStats() (shards int, waves int64, imbalance float64) {
	if n.gang == nil {
		return 1, 0, 0
	}
	waves, imbalance = n.gang.Stats()
	return len(n.tiles), waves, imbalance
}
