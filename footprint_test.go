package noceval

import (
	"runtime"
	"testing"

	"noceval/internal/cmp"
	"noceval/internal/core"
	"noceval/internal/network"
	"noceval/internal/workload"
)

// TestExecFootprint pins what an execution-driven run holds: one 8-byte
// word per cache way, and at most 6 MiB of heap retained by a finished
// canneal system at 75 MHz with timer interrupts on the Table II network
// (caches, directories, network, programs). With a 24-byte way carrying an
// LRU tick and a 96-byte directory entry behind a pointer, the system held
// 7.5 MiB; it holds 3.0. The directory entry's own size is pinned in
// internal/cmp (TestDirEntrySize), the one package that can name the type.
func TestExecFootprint(t *testing.T) {
	const l2Bytes, ways, lineBytes = 512 * 1024, 8, 64
	perWay := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := cmp.NewCache(l2Bytes, ways, lineBytes)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		perWay = min(perWay, (after.TotalAlloc-before.TotalAlloc)/(l2Bytes/lineBytes))
	}
	if perWay != 8 {
		t.Errorf("a cache allocates %d bytes per way, want 8", perWay)
	}

	prof, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	netCfg, err := core.Table2Network(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cmp.DefaultConfig()
	cfg.TimerPeriod = prof.TimerPeriod(workload.Clock75MHz)
	cfg.TimerHandlerInsts = prof.TimerHandlerInsts

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := cmp.NewSystem(cfg, cmp.NetFabric{Network: network.New(netCfg)}, workload.Programs(prof, cfg.Tiles, 1))
	if err != nil {
		t.Fatal(err)
	}
	prof.Warm(sys, cfg.Tiles)
	if res := sys.Run(); !res.Completed {
		t.Fatalf("canneal did not complete in %d cycles", res.Cycles)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("finished canneal system retains %.2f MiB of heap", retained)
	if retained > 6 {
		t.Errorf("finished canneal system retains %.2f MiB of heap, want <= 6", retained)
	}
}
