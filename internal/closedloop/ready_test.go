package closedloop

import (
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"noceval/internal/engine"
	"noceval/internal/fault"
)

// scanChecked is a batchDriver whose ready set is compared with a scan of
// every node at each point the engine can observe it: at the top of an
// iteration (Done — after the previous cycle's Step, where replies arrive
// and the NIC abandons) and after the driver's own Cycle.
type scanChecked struct {
	*batchDriver
	t      *testing.T
	name   string
	checks int
	// sawReady and sawIdle count iterations with and without ready nodes.
	sawReady, sawIdle int
}

func (c *scanChecked) check(now int64, where string) {
	d := c.batchDriver
	count := 0
	for i := range d.nodes {
		want := d.eligible(&d.nodes[i])
		if got := d.ready[i>>6]&(1<<(uint(i)&63)) != 0; got != want {
			c.t.Fatalf("%s: cycle %d %s: node %d ready bit %v, scan says %v (%+v)", c.name, now, where, i, got, want, d.nodes[i])
		}
		if want {
			count++
		}
	}
	pop := 0
	for _, w := range d.ready {
		pop += bits.OnesCount64(w)
	}
	if d.readyCount != count || pop != count {
		c.t.Fatalf("%s: cycle %d %s: readyCount %d, %d bits set, scan counts %d", c.name, now, where, d.readyCount, pop, count)
	}
	if d.Idle(now) != (count == 0) {
		c.t.Fatalf("%s: cycle %d %s: Idle %v with %d eligible nodes", c.name, now, where, d.Idle(now), count)
	}
	c.checks++
}

func (c *scanChecked) Done(now int64) bool {
	c.check(now, "before Cycle")
	if c.batchDriver.readyCount > 0 {
		c.sawReady++
	} else {
		c.sawIdle++
	}
	return c.batchDriver.Done(now)
}

func (c *scanChecked) Cycle(now int64) {
	c.batchDriver.Cycle(now)
	c.check(now, "after Cycle")
}

// TestReadySetMatchesScan runs the whole matrix with the ready set checked
// against the predicate, recomputed for every node, around every engine
// iteration.
func TestReadySetMatchesScan(t *testing.T) {
	for name, cfg := range batchMatrix() {
		cfg.fillDefaults()
		d := newBatchDriver(&cfg)
		c := &scanChecked{batchDriver: d, t: t, name: name}
		eo := engine.RunOutcome(engine.Config{Net: d.net, Deadline: cfg.MaxCycles}, c)
		d.net.Close()
		if !eo.Completed {
			t.Fatalf("%s: did not complete", name)
		}
		if c.sawReady == 0 || c.sawIdle == 0 {
			t.Errorf("%s: %d iterations with ready nodes, %d without; both must occur", name, c.sawReady, c.sawIdle)
		}
		if d.readyCount != 0 {
			t.Errorf("%s: %d nodes still ready after every node finished", name, d.readyCount)
		}
	}
}

// neverIdle is a batchDriver that denies the engine every fast-forward:
// Idle is a hint the engine may act on only when Cycle would be a no-op, so
// stepping every cycle instead must not change the run.
type neverIdle struct{ *batchDriver }

func (neverIdle) Idle(int64) bool { return false }

// batchEnd is everything RunBatch assembles a BatchResult from once the
// engine returns, plus where the run left its random streams.
type batchEnd struct {
	End        int64
	Completed  bool
	Res        BatchResult
	Nodes      []nodeState
	LatencySum float64
	LatencyCnt int64
	Bucket     [3]int64
	Faults     *fault.Stats
	Stats      [4]int64
	Draws      [3]uint64
}

// TestFastForwardMatchesFullStepping runs every case of the matrix twice,
// once as RunBatch does and once with every cycle stepped, and requires the
// same end state: the engine's jumps over idle stretches — to reply ready
// times, timer ticks, timeline bucket boundaries and NIC timeouts — skip
// only cycles in which nothing happens.
func TestFastForwardMatchesFullStepping(t *testing.T) {
	var skipped int64
	for name, cfg := range batchMatrix() {
		cfg.fillDefaults()
		run := func(wrap func(*batchDriver) engine.Driver) (batchEnd, engine.Outcome) {
			d := newBatchDriver(&cfg)
			defer d.net.Close()
			eo := engine.RunOutcome(engine.Config{Net: d.net, Deadline: cfg.MaxCycles}, wrap(d))
			e := batchEnd{
				End: eo.End, Completed: eo.Completed, Res: *d.res, Nodes: d.nodes,
				LatencySum: d.latencySum, LatencyCnt: d.latencyCnt,
				Bucket: [3]int64{d.bucketUser, d.bucketKernel, d.bucketStart},
				Faults: d.net.FaultStats(),
				Draws:  [3]uint64{d.rng.Uint64(), d.replyRNG.Uint64(), d.net.RNG().Uint64()},
			}
			e.Stats[0], e.Stats[1], e.Stats[2], e.Stats[3] = d.net.Stats()
			return e, eo
		}
		fast, eoFast := run(func(d *batchDriver) engine.Driver { return d })
		full, eoFull := run(func(d *batchDriver) engine.Driver { return neverIdle{d} })
		if !fast.Completed {
			t.Fatalf("%s: did not complete", name)
		}
		if eoFull.Skipped != 0 {
			t.Fatalf("%s: the fully stepped side skipped %d cycles", name, eoFull.Skipped)
		}
		skipped += eoFast.Skipped
		if !reflect.DeepEqual(fast, full) {
			t.Errorf("%s: fast-forwarded and fully stepped runs differ:\nfast: %+v\nfull: %+v", name, fast, full)
		}
	}
	if skipped == 0 {
		t.Fatal("no case fast-forwarded anything; the comparison compared two stepped runs")
	}
}

// TestBatchAllocationsPerTransaction bounds what one transaction of the
// benchmark's idle-tail shape allocates: its request and its reply packet,
// and nothing for scheduling the reply (the network's construction,
// amortized over 32 000 transactions, is the rest).
func TestBatchAllocationsPerTransaction(t *testing.T) {
	cfg := BatchConfig{
		Net: meshConfig(1, 8), B: 500, M: 1, Seed: 1,
		Reply: FixedReply{Latency: 20000}, MaxCycles: 500 * 40000,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunBatch(cfg)
	runtime.ReadMemStats(&after)
	if err != nil || !res.Completed {
		t.Fatalf("run failed: %v %+v", err, res)
	}
	transactions := float64(cfg.B * len(res.NodeFinish))
	perTxn := float64(after.Mallocs-before.Mallocs) / transactions
	t.Logf("%.3f objects per transaction", perTxn)
	if perTxn > 2.1 {
		t.Errorf("%.3f objects allocated per transaction, want <= 2.1 (one per packet)", perTxn)
	}
}
