package network

import (
	"runtime"
	"testing"
	"unsafe"

	"noceval/internal/fault"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

// flitQueue is the source queue this package kept before a waiting packet
// became a record: the Packet allocated at Send and one Flit per flit,
// popped flit by flit and purged flit by flit. It is the reference the
// record queue is held to.
type flitQueue struct{ sim.FIFO[router.Flit] }

func (q *flitQueue) push(p *router.Packet) {
	for i := 0; i < p.Size; i++ {
		q.Push(router.Flit{P: p, Seq: int32(i)})
	}
}

// flitID names one flit by its packet and its place in the packet.
type flitID struct {
	id  uint64
	seq int32
}

// waiting lists, in injection order, the first max flits q holds.
func waiting(q *sourceQueue, max int) []flitID {
	var out []flitID
	if q.cur != nil {
		for s := q.seq; int(s) < q.cur.Size && len(out) < max; s++ {
			out = append(out, flitID{q.cur.ID, s})
		}
	}
	for i := 0; i < q.recs.Len() && len(out) < max; i++ {
		r := q.recs.At(i)
		for s := int32(0); s < r.size && len(out) < max; s++ {
			out = append(out, flitID{r.id, s})
		}
	}
	return out
}

// checkSourceQueues drives a mesh4x4 under Valiant routing with one to
// three QoS classes past saturation: packets of 1–8 flits, classes drawn up
// to one past the configured range (the network clamps them), random Aux
// and measured flags, injection paced by the routers' own back-pressure.
// Beside every (node, class) source queue it keeps a flitQueue fed the
// same packets. After each cycle it checks the flits the cycle took from
// each queue, in order, against the flits the reference gives up;
// SourceQueueLen and the tiles' queued-flit counts against the reference;
// and every arriving packet against the packet as sent, with InjectTime
// the cycle its head left the reference; and flit conservation at the end.
// Half way through, the first node
// holding a half-injected packet is killed: the packets it had not
// finished injecting must be the packets the reference purges. It reports
// whether the kill happened.
func checkSourceQueues(t testing.TB, seed uint64, cycles int) (killed bool) {
	t.Helper()
	rng := sim.NewRNG(seed)
	classes := 1 + rng.Intn(3)
	topo := topology.NewMesh(4, 4)
	n := New(Config{
		Topo:    topo,
		Routing: routing.Valiant{},
		Router:  router.Config{VCs: 2 * classes, BufDepth: 2, Delay: 1, Classes: classes},
		Seed:    seed,
		// A kill scheduled past the run arms fault handling; the test
		// kills a router itself, once one of its packets is half injected.
		Fault: &fault.Params{Kills: []fault.Kill{{Node: 0, At: 1 << 40}}},
	})
	ref := make([]flitQueue, topo.N*classes)
	sent := map[uint64]router.Packet{}
	injected := map[uint64]int64{}
	n.OnReceive = func(now int64, p *router.Packet) {
		want := sent[p.ID]
		if p.Route.Intermediate != want.Route.Intermediate {
			t.Fatalf("seed %d: packet %d arrived with intermediate %d, sent with %d", seed, p.ID, p.Route.Intermediate, want.Route.Intermediate)
		}
		// What the trip itself writes.
		want.InjectTime = injected[p.ID]
		want.ArriveTime, want.Hops, want.Route = p.ArriveTime, p.Hops, p.Route
		if *p != want {
			t.Fatalf("seed %d: packet %d arrived as %+v, sent as %+v", seed, p.ID, *p, want)
		}
	}

	before := make([][]flitID, len(ref))
	flits := make([]int, len(ref))
	// Offer traffic for cycles cycles, then let as much drain as will in as
	// many again: the network need not empty, because a kill strands the
	// wormhole of a half-injected packet downstream, with or without
	// records.
	for c := 0; c < 2*cycles; c++ {
		now := n.Now()
		for node := 0; node < topo.N && c < cycles; node++ {
			if !rng.Bernoulli(0.15) {
				continue
			}
			p := n.NewPacket(node, rng.Intn(topo.N), 1+rng.Intn(8), router.KindData)
			p.Class = rng.Intn(classes + 1)
			p.Aux = rng.Uint64()
			p.Measured = rng.Bernoulli(0.5)
			sent[p.ID] = p
			n.Send(p)
			if !n.routers[node].Dead() {
				ref[node*classes+n.clampClass(p.Class)].push(&p)
			}
		}
		if !killed && c >= cycles/2 {
			killed = killHalfInjected(t, seed, n, ref, classes)
		}

		for i := range ref {
			before[i] = waiting(&n.srcQ[i], 64)
			flits[i] = n.srcQ[i].flits
		}
		n.Step()
		var queued int64
		for i := range ref {
			for j := 0; j < flits[i]-n.srcQ[i].flits; j++ {
				f, _ := ref[i].Pop()
				if want := (flitID{f.P.ID, f.Seq}); before[i][j] != want {
					t.Fatalf("seed %d cycle %d queue %d: injected flit %v, the flit FIFO injects %v", seed, now, i, before[i][j], want)
				}
				if f.Head() {
					injected[f.P.ID] = now
				}
			}
			if n.srcQ[i].flits != ref[i].Len() {
				t.Fatalf("seed %d cycle %d queue %d: %d flits waiting, the flit FIFO holds %d", seed, now, i, n.srcQ[i].flits, ref[i].Len())
			}
			queued += int64(ref[i].Len())
		}
		for node := 0; node < topo.N; node++ {
			want := 0
			for qc := 0; qc < classes; qc++ {
				want += ref[node*classes+qc].Len()
			}
			if got := n.SourceQueueLen(node); got != want {
				t.Fatalf("seed %d cycle %d: SourceQueueLen(%d) = %d, the flit FIFOs hold %d", seed, now, node, got, want)
			}
		}
		if got := n.tiles[0].queuedFlits; got != queued {
			t.Fatalf("seed %d cycle %d: %d queued flits counted, the flit FIFOs hold %d", seed, now, got, queued)
		}
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return killed
}

// killHalfInjected kills the first node whose source queues hold a packet
// whose head has injected and whose tail has not, after checking that the
// packets the node has not finished injecting are the distinct packets
// the flit FIFOs purge. It reports whether it found such a node.
func killHalfInjected(t testing.TB, seed uint64, n *Network, ref []flitQueue, classes int) bool {
	t.Helper()
	for node := 0; node < n.Nodes(); node++ {
		var curs []*router.Packet
		records := 0
		for qc := 0; qc < classes; qc++ {
			q := &n.srcQ[node*classes+qc]
			records += q.recs.Len()
			if q.cur != nil {
				curs = append(curs, q.cur)
			}
		}
		if len(curs) == 0 {
			continue
		}
		purged := map[uint64]bool{}
		for qc := 0; qc < classes; qc++ {
			q := &ref[node*classes+qc]
			for j := 0; j < q.Len(); j++ {
				purged[q.At(j).P.ID] = true
			}
			q.Clear()
		}
		if records+len(curs) != len(purged) {
			t.Fatalf("seed %d: node %d has %d packets left to inject, the flit FIFOs purge %d", seed, node, records+len(curs), len(purged))
		}
		dead := n.pktsDead
		n.killRouter(n.Now(), node)
		if got := n.pktsDead - dead; got < int64(records) {
			t.Fatalf("seed %d: the kill counted %d dead packets, %d never injected", seed, got, records)
		}
		for _, p := range curs {
			if !p.FaultDead {
				t.Fatalf("seed %d: half-injected packet %d survived the kill of its source", seed, p.ID)
			}
		}
		if n.SourceQueueLen(node) != 0 {
			t.Fatalf("seed %d: killed node %d still queues %d flits", seed, node, n.SourceQueueLen(node))
		}
		return true
	}
	return false
}

// TestSourceQueueMatchesFlitQueue holds the record queue to the per-flit
// FIFO it replaced (checkSourceQueues) on eight seeds, each of which must
// reach the kill of a half-injected packet.
func TestSourceQueueMatchesFlitQueue(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		if !checkSourceQueues(t, seed, 400) {
			t.Errorf("seed %d: no node ever held a half-injected packet, so no kill was checked", seed)
		}
	}
}

// FuzzSourceQueue is checkSourceQueues on fuzzer-chosen seeds.
func FuzzSourceQueue(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSourceQueues(t, seed, 200)
	})
}

// TestQueuedPacketFootprint pins what a backlog costs. Transpose traffic at
// 0.28 flits/cycle/node on mesh8x8 under DOR — the sweep_knee point a wave
// discards — saturates, so the source queues grow for the whole run. The
// heap the network gains between cycles 4 000 and 14 000, over the packets
// it queued in between, is what one waiting single-flit packet costs: a
// 48-byte record plus ring slack. With a 128-byte Packet and a 16-byte
// Flit it was ≈ 149 B.
func TestQueuedPacketFootprint(t *testing.T) {
	if size := unsafe.Sizeof(queuedPacket{}); size > 48 {
		t.Errorf("a queued packet is a %d-byte record, want <= 48", size)
	}
	topo := topology.NewMesh(8, 8)
	n := New(Config{Topo: topo, Routing: routing.DOR{}, Router: router.Config{VCs: 2, BufDepth: 16, Delay: 1}, Seed: 1})
	rng := sim.NewRNG(2)
	run := func(cycles int) {
		for c := 0; c < cycles; c++ {
			for node := 0; node < topo.N; node++ {
				if rng.Bernoulli(0.28) {
					n.Send(n.NewPacket(node, traffic.Transpose{}.Dest(rng, node, topo.N), 1, router.KindData))
				}
			}
			n.Step()
		}
	}
	// heap returns the live heap and the packets waiting at their sources.
	heap := func() (bytes uint64, queued int) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for node := 0; node < topo.N; node++ {
			queued += n.SourceQueueLen(node)
		}
		return ms.HeapAlloc, queued
	}
	run(4000)
	h1, q1 := heap()
	run(10000)
	h2, q2 := heap()
	runtime.KeepAlive(n)
	if q2-q1 < 20000 {
		t.Fatalf("the backlog grew by %d packets, want a saturated run", q2-q1)
	}
	per := float64(int64(h2)-int64(h1)) / float64(q2-q1)
	t.Logf("%d -> %d queued packets, live heap %d -> %d B: %.1f B per queued packet", q1, q2, h1, h2, per)
	if per > 80 {
		t.Errorf("%.1f B of heap per queued packet, want <= 80", per)
	}
}
