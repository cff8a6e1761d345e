package openloop

import (
	"runtime"
	"testing"

	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
	"noceval/internal/traffic"
)

// liveHeap runs cfg and returns the collected heap at the Inspect hook —
// after the result is assembled, with the run's samples and network still
// reachable — and the measured-packet count.
func liveHeap(t *testing.T, cfg Config) (heap uint64, measured int) {
	t.Helper()
	cfg.Inspect = func(*network.Network) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("footprint run is not stable")
	}
	return heap, res.MeasuredPackets
}

// TestRunBytesPerMeasuredPacket is the footprint of the measurement window
// as a unit test: doubling Measure at a fixed load doubles the measured
// packets and nothing else a run keeps, so the heap difference per extra
// packet is what one measured packet costs — its one-byte varint in the
// sample (every latency here is below 128 cycles), plus a second in its
// class's sample in a multi-class run. The limits are 1 and 2 B plus the
// headroom the []uint32 sample's 4.5 and 8.5 B had over 4 and 8. (As
// []uint32 these read about 4.1 and 8.2; as []float64 about 8 and 16,
// before Summarize's sort copies.)
func TestRunBytesPerMeasuredPacket(t *testing.T) {
	net := func(classes int) network.Config {
		return network.Config{Topo: topology.NewMesh(4, 4), Routing: routing.DOR{},
			Router: router.Config{VCs: 4, BufDepth: 4, Delay: 1, Classes: classes}, Seed: 3}
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		limit float64 // bytes per measured packet
	}{
		{"single class", Config{Net: net(0), Rate: 0.2, Seed: 9}, 1.125},
		{"three classes", Config{Net: net(3), Rate: 0.2, Seed: 9, Classes: []traffic.Class{
			{Name: "ctl", Share: 0.2}, {Name: "data", Share: 0.3}, {Name: "bulk", Share: 0.5}}}, 2.125},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const M = 20000
			tc.cfg.Warmup = 1000
			tc.cfg.Measure = M
			heap1, n1 := liveHeap(t, tc.cfg)
			tc.cfg.Measure = 2 * M
			heap2, n2 := liveHeap(t, tc.cfg)
			if n2-n1 < 50000 {
				t.Fatalf("measured %d then %d packets; want at least 50000 more", n1, n2)
			}
			per := (float64(heap2) - float64(heap1)) / float64(n2-n1)
			t.Logf("%d -> %d measured packets, live heap %d -> %d B: %.2f B per measured packet", n1, n2, heap1, heap2, per)
			if per > tc.limit {
				t.Errorf("%.2f B per measured packet, want <= %.3f", per, tc.limit)
			}
		})
	}
}
