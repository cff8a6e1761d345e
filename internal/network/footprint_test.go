package network

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"noceval/internal/routing"
	"noceval/internal/topology"
)

func mustTopo(t *testing.T, name string) *topology.Topology {
	t.Helper()
	topo, err := topology.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestValidateBoundsFootprint: dimensions whose buffers and pipes New could
// not allocate are a Validate error, not a fatal out-of-memory inside New;
// the largest configurations the repository runs, and the largest
// topology ByName builds at baseline sizes, stay valid.
func TestValidateBoundsFootprint(t *testing.T) {
	for _, tc := range []struct {
		topo      string
		alg       routing.Algorithm
		vcs, q    int
		tr        int64
		wantError string // "" = valid
	}{
		{"mesh8x8", routing.DOR{}, 1_000_000_000, 16, 1,
			"network: 8x8 mesh with VCs 1000000000, BufDepth 16, Delay 1 needs 1e+05 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"mesh8x8", routing.DOR{}, 2, 1_000_000_000, 1,
			"network: 8x8 mesh with VCs 2, BufDepth 1000000000, Delay 1 needs 9.54e+03 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"mesh8x8", routing.DOR{}, 2, 16, 1_000_000_000_000,
			"network: 8x8 mesh with VCs 2, BufDepth 16, Delay 1000000000000 needs 8.58e+06 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"mesh4x4", routing.DOR{}, 2, 16, math.MaxInt64,
			"network: 4x4 mesh with VCs 2, BufDepth 16, Delay 9223372036854775807 needs 1.76e+13 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"mesh4x4", routing.DOR{}, math.MaxInt, math.MaxInt, 1,
			"network: 4x4 mesh with VCs 9223372036854775807, BufDepth 9223372036854775807, Delay 1 needs 1.01e+32 GiB of router buffers and pipes, over the 1 GiB limit"},
		{"mesh8x8", routing.DOR{}, 2, 16, 1, ""},
		{"mesh16x16", routing.DOR{}, 16, 16, 8, ""},
		{"torus8x8", routing.Valiant{}, 4, 16, 8, ""},
		{"mesh4x4", routing.DOR{}, 127, 16, 1, ""},
		{"mesh256x256", routing.DOR{}, 2, 16, 1, ""},
	} {
		cfg := testConfig(mustTopo(t, tc.topo), tc.alg, tc.vcs, tc.q, tc.tr)
		got := ""
		if err := cfg.Validate(); err != nil {
			got = err.Error()
		}
		if got != tc.wantError {
			t.Errorf("%s VCs %d BufDepth %d Delay %d: Validate = %q\n  want %q", tc.topo, tc.vcs, tc.q, tc.tr, got, tc.wantError)
		}
	}
}

// TestFootprintBoundary: Validate accepts exactly the buffer depths whose
// estimate is within maxFootprint.
func TestFootprintBoundary(t *testing.T) {
	topo := mustTopo(t, "mesh4x4")
	cfg := func(q int) Config { return testConfig(topo, routing.DOR{}, 2, q, 1) }
	lo, hi := 1, 1<<30 // Validate(lo) passes, Validate(hi) fails
	if cfg(lo).Validate() != nil || cfg(hi).Validate() == nil {
		t.Fatalf("bracket [%d, %d] does not straddle the limit", lo, hi)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if cfg(mid).Validate() == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	if in, out := cfg(lo).footprint(), cfg(hi).footprint(); in > maxFootprint || out <= maxFootprint {
		t.Fatalf("deepest valid BufDepth %d estimates %.0f B, the next %.0f B; the limit is %d B", lo, in, out, maxFootprint)
	}
	if err := cfg(hi).Validate(); !strings.Contains(err.Error(), "over the 1 GiB limit") {
		t.Fatalf("BufDepth %d: %v", hi, err)
	}
}

// TestFootprintCoversNew: the estimate Validate bounds is what New really
// allocates, to within 10 % and never above it, where buffers or pipes
// dominate and at the sizes the repository runs, where the per-VC
// candidate slab and the per-router next-hop rows are a visible share.
func TestFootprintCoversNew(t *testing.T) {
	mesh4, mesh8, mesh16 := mustTopo(t, "mesh4x4"), mustTopo(t, "mesh8x8"), mustTopo(t, "mesh16x16")
	for _, c := range []Config{
		testConfig(mesh4, routing.DOR{}, 2, 1<<13, 1),  // buffers dominate
		testConfig(mesh4, routing.DOR{}, 2, 2, 1<<15),  // pipes dominate
		testConfig(mesh4, routing.DOR{}, 64, 64, 1<<8), // both
		testConfig(mesh8, routing.DOR{}, 2, 16, 1),     // the baseline network
		testConfig(mesh8, routing.DOR{}, 32, 64, 1),
		testConfig(mesh16, routing.MinimalAdaptive{}, 2, 16, 1),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := New(c)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(n)
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		name := fmt.Sprintf("%s/%s VCs %d BufDepth %d Delay %d", c.Topo.Name, c.Routing.Name(), c.Router.VCs, c.Router.BufDepth, c.Router.Delay)
		t.Logf("%s: estimate %.0f B, New allocated %.0f B", name, c.footprint(), alloc)
		if est := c.footprint(); est > alloc || est < 0.9*alloc {
			t.Errorf("%s: estimate %.0f B, New allocated %.0f B", name, est, alloc)
		}
	}
}
