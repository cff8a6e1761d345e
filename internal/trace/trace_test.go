package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"noceval/internal/engine"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

func meshCfg(tr int64) network.Config {
	return network.Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 8, Delay: tr},
		Seed:    9,
	}
}

// capture runs random traffic on a network that records every send.
func capture(t *testing.T, cfg network.Config, packets int) *Trace {
	t.Helper()
	tr := &Trace{Nodes: cfg.Topo.N}
	cfg.OnSend = tr.Record
	net := network.New(cfg)
	rng := sim.NewRNG(3)
	sent := 0
	for sent < packets {
		for node := 0; node < cfg.Topo.N && sent < packets; node++ {
			if rng.Bernoulli(0.2) {
				net.Send(net.NewPacket(node, rng.Intn(cfg.Topo.N), 1+rng.Intn(4), router.KindData))
				sent++
			}
		}
		net.Step()
	}
	for start := net.Now(); !net.Quiescent(); net.Step() {
		if net.Now()-start >= 100000 {
			t.Fatal("capture network did not drain")
		}
	}
	return tr
}

func TestOnSendCapturesEverything(t *testing.T) {
	tr := capture(t, meshCfg(1), 500)
	if len(tr.Events) != 500 {
		t.Fatalf("captured %d events, want 500", len(tr.Events))
	}
	last := int64(-1)
	for _, e := range tr.Events {
		if e.Time < last {
			t.Fatal("trace timestamps not monotonic")
		}
		last = e.Time
		if e.Src < 0 || e.Src >= 16 || e.Dst < 0 || e.Dst >= 16 || e.Size < 1 {
			t.Fatalf("bad event %+v", e)
		}
	}
}

func TestRoundTripSerialization(t *testing.T) {
	tr := capture(t, meshCfg(1), 200)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != tr.Nodes || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost data: %d/%d events", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := Read(strings.NewReader("nodes 16\n1 2 3\n")); err == nil {
		t.Error("truncated event accepted")
	}
}

// Read rejects every trace Replay could not inject, each of which it
// once accepted: Replay of the first out-of-range source panicked.
func TestReadRejectsMalformedTraces(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"no nodes", "nodes 0\n"},
		{"negative nodes", "nodes -4\n"},
		{"source far out of range", "nodes 16\n0 99 3 1 0\n"},
		{"source is nodes", "nodes 16\n0 16 3 1 0\n"},
		{"negative source", "nodes 16\n0 -1 3 1 0\n"},
		{"destination out of range", "nodes 16\n0 1 99 1 0\n"},
		{"destination is nodes", "nodes 16\n0 1 16 1 0\n"},
		{"negative destination", "nodes 16\n0 1 -3 1 0\n"},
		{"zero size", "nodes 16\n0 1 3 0 0\n"},
		{"negative size", "nodes 16\n0 1 3 -2 0\n"},
		{"negative time", "nodes 16\n-1 1 3 1 0\n"},
		{"time out of order", "nodes 16\n5 1 3 1 0\n4 2 3 1 0\n"},
	} {
		if tr, err := Read(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: Read accepted %+v", tc.name, tr)
		}
	}
	ok := "nodes 16\n0 1 3 1 0\n0 15 0 4 1\n7 2 3 1 0\n"
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Errorf("well-formed trace rejected: %v", err)
	}
}

func TestReplayDeliversAllPackets(t *testing.T) {
	tr := capture(t, meshCfg(1), 400)
	res, err := Replay(tr, meshCfg(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("replay did not complete")
	}
	if res.Packets != 400 {
		t.Errorf("replayed %d packets, want 400", res.Packets)
	}
	if res.AvgLatency <= 0 {
		t.Error("no latency measured")
	}
}

func TestReplayOnSlowerNetworkRaisesLatency(t *testing.T) {
	tr := capture(t, meshCfg(1), 400)
	fast, err := Replay(tr, meshCfg(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Replay(tr, meshCfg(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgLatency <= fast.AvgLatency {
		t.Errorf("tr=4 replay latency %.1f not above tr=1 %.1f", slow.AvgLatency, fast.AvgLatency)
	}
	// The known trace-driven limitation: injection times do not adapt, so
	// the run merely stretches rather than restructuring.
	if slow.Runtime <= fast.Runtime {
		t.Errorf("tr=4 replay runtime %d not above tr=1 %d", slow.Runtime, fast.Runtime)
	}
}

func TestReplayValidation(t *testing.T) {
	tr := &Trace{Nodes: 64}
	if _, err := Replay(tr, meshCfg(1), 0); err == nil {
		t.Error("node-count mismatch accepted")
	}
}

// steppedReplay is the replay loop the engine driver replaced, kept as the
// reference: it steps every cycle, gaps included. Its Runtime is the last
// arrival, as Replay's is; the loop itself runs until the network drains.
func steppedReplay(t *Trace, cfg network.Config, maxCycles int64) *ReplayResult {
	if maxCycles <= 0 {
		maxCycles = 50_000_000
	}
	net := network.New(cfg)
	defer net.Close()
	var latencySum int64
	res := &ReplayResult{}
	net.OnReceive = func(now int64, p *router.Packet) {
		latencySum += p.Latency()
		res.Packets++
		res.Runtime = now
	}
	i := 0
	for {
		now := net.Now()
		if now >= maxCycles {
			break
		}
		for i < len(t.Events) && t.Events[i].Time <= now {
			e := t.Events[i]
			p := net.NewPacket(e.Src, e.Dst, e.Size, e.Kind)
			p.CreateTime = e.Time
			net.Send(p)
			i++
		}
		net.Step()
		if i == len(t.Events) && net.Quiescent() {
			res.Completed = true
			break
		}
	}
	if res.Packets > 0 {
		res.AvgLatency = float64(latencySum) / float64(res.Packets)
	}
	return res
}

// gappyTrace draws n events on 16 nodes: each follows the previous one by
// a gap in [0, maxGap), and has 1..maxSize flits.
func gappyTrace(seed uint64, n, maxGap, maxSize int) *Trace {
	rng := sim.NewRNG(seed)
	tr := &Trace{Nodes: 16}
	var now int64
	for i := 0; i < n; i++ {
		now += int64(rng.Intn(maxGap))
		tr.Events = append(tr.Events, Event{Time: now, Src: rng.Intn(16), Dst: rng.Intn(16), Size: 1 + rng.Intn(maxSize), Kind: router.KindData})
	}
	return tr
}

// compareWithSteppedLoop replays tr through Replay and the reference loop
// and fails unless both send the same packets at the same cycles and
// report the same result. It returns Replay's engine outcome.
func compareWithSteppedLoop(t *testing.T, tr *Trace, cfg network.Config, maxCycles int64) engine.Outcome {
	t.Helper()
	var sends [2]Trace
	cfg.OnSend = sends[0].Record
	got, eo, err := replay(tr, cfg, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnSend = sends[1].Record
	want := steppedReplay(tr, cfg, maxCycles)
	if *got != *want {
		t.Fatalf("engine replay %+v, stepped loop %+v", *got, *want)
	}
	if !slices.Equal(sends[0].Events, sends[1].Events) {
		t.Fatalf("engine replay sent %d packets, stepped loop %d, or at other cycles",
			len(sends[0].Events), len(sends[1].Events))
	}
	return eo
}

func TestReplayFastForwardsGaps(t *testing.T) {
	tr := gappyTrace(5, 300, 400, 4)
	eo := compareWithSteppedLoop(t, tr, meshCfg(2), 0)
	if !eo.Completed || eo.Skipped == 0 {
		t.Fatalf("outcome %+v: want a completed replay that skipped the gaps", eo)
	}
	if eo.End != eo.Stepped+eo.Skipped {
		t.Fatalf("outcome %+v: stepped and skipped cycles do not add up to the end", eo)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	res, eo, err := replay(&Trace{Nodes: 16}, meshCfg(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if *res != (ReplayResult{Completed: true}) || eo.End != 0 {
		t.Fatalf("empty replay %+v ended at %d, want a completed zero result at cycle 0", *res, eo.End)
	}
}

// FuzzReplayMatchesSteppedLoop checks the engine-driven replay against the
// stepped loop over fuzzed event gaps, packet sizes, router delays and
// cycle limits, a limit that cuts the replay short included.
func FuzzReplayMatchesSteppedLoop(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint16(0), uint8(4), uint8(1), uint16(0))
	f.Add(uint64(2), uint8(100), uint16(3000), uint8(8), uint8(3), uint16(0))
	f.Add(uint64(3), uint8(200), uint16(50), uint8(2), uint8(2), uint16(700))
	f.Add(uint64(4), uint8(0), uint16(10), uint8(1), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, gap uint16, size, delay uint8, limit uint16) {
		tr := gappyTrace(seed, int(n), 1+int(gap%5000), 1+int(size%8))
		compareWithSteppedLoop(t, tr, meshCfg(1+int64(delay%4)), int64(limit))
	})
}
