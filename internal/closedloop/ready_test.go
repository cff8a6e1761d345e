package closedloop

import (
	"math/bits"
	"runtime"
	"testing"

	"noceval/internal/engine"
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
