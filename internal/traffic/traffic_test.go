package traffic

import (
	"testing"
	"testing/quick"

	"noceval/internal/sim"
)

func TestUniformCoversAllDestinations(t *testing.T) {
	rng := sim.NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		d := (Uniform{}).Dest(rng, 3, 64)
		if d < 0 || d >= 64 {
			t.Fatalf("destination %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != 64 {
		t.Errorf("uniform covered %d/64 destinations", len(seen))
	}
}

func TestUniformNoSelf(t *testing.T) {
	rng := sim.NewRNG(2)
	for src := 0; src < 16; src++ {
		for i := 0; i < 1000; i++ {
			if d := (UniformNoSelf{}).Dest(rng, src, 16); d == src {
				t.Fatalf("self destination from %d", src)
			}
		}
	}
	if d := (UniformNoSelf{}).Dest(rng, 0, 1); d != 0 {
		t.Error("single-node special case broken")
	}
}

func TestUniformNoSelfIsUniform(t *testing.T) {
	rng := sim.NewRNG(3)
	counts := make([]int, 8)
	const iters = 80000
	for i := 0; i < iters; i++ {
		counts[(UniformNoSelf{}).Dest(rng, 3, 8)]++
	}
	if counts[3] != 0 {
		t.Fatal("self hit")
	}
	for d, c := range counts {
		if d == 3 {
			continue
		}
		f := float64(c) / iters
		if f < 0.12 || f > 0.165 {
			t.Errorf("destination %d frequency %.3f, want ~1/7", d, f)
		}
	}
}

func TestTranspose(t *testing.T) {
	// 64 nodes = 8x8: node index yyyxxx, transpose swaps halves.
	p := Transpose{}
	if d := p.Dest(nil, 0, 64); d != 0 {
		t.Errorf("transpose(0) = %d", d)
	}
	// node (x=1, y=0) = 1 -> (x=0, y=1) = 8.
	if d := p.Dest(nil, 1, 64); d != 8 {
		t.Errorf("transpose(1) = %d, want 8", d)
	}
	// Property: transpose is an involution.
	err := quick.Check(func(n int) bool {
		src := abs(n) % 64
		return p.Dest(nil, p.Dest(nil, src, 64), 64) == src
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBitComplement(t *testing.T) {
	p := BitComplement{}
	if d := p.Dest(nil, 0, 64); d != 63 {
		t.Errorf("bitcomp(0) = %d", d)
	}
	err := quick.Check(func(n int) bool {
		src := abs(n) % 64
		return p.Dest(nil, p.Dest(nil, src, 64), 64) == src
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBitReversal(t *testing.T) {
	p := BitReversal{}
	// 64 nodes, 6 bits: 0b000001 -> 0b100000.
	if d := p.Dest(nil, 1, 64); d != 32 {
		t.Errorf("bitrev(1) = %d, want 32", d)
	}
	err := quick.Check(func(n int) bool {
		src := abs(n) % 64
		return p.Dest(nil, p.Dest(nil, src, 64), 64) == src
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestShuffle(t *testing.T) {
	p := Shuffle{}
	// 6 bits: 0b100000 -> 0b000001.
	if d := p.Dest(nil, 32, 64); d != 1 {
		t.Errorf("shuffle(32) = %d, want 1", d)
	}
	if d := p.Dest(nil, 3, 64); d != 6 {
		t.Errorf("shuffle(3) = %d, want 6", d)
	}
}

func TestTornadoAndNeighbor(t *testing.T) {
	// 8x8: tornado moves ceil(8/2)-1 = 3 in +x.
	if d := (Tornado{}).Dest(nil, 0, 64); d != 3 {
		t.Errorf("tornado(0) = %d, want 3", d)
	}
	if d := (Tornado{}).Dest(nil, 6, 64); d != 1 {
		t.Errorf("tornado(6) = %d, want 1 (wrap)", d)
	}
	if d := (Neighbor{}).Dest(nil, 7, 64); d != 0 {
		t.Errorf("neighbor(7) = %d, want 0 (wrap)", d)
	}
	if d := (Neighbor{}).Dest(nil, 8, 64); d != 9 {
		t.Errorf("neighbor(8) = %d, want 9", d)
	}
}

func TestPermutationsAreBijective(t *testing.T) {
	for _, p := range []Pattern{Transpose{}, BitComplement{}, BitReversal{}, Shuffle{}, Tornado{}, Neighbor{}} {
		seen := map[int]bool{}
		for src := 0; src < 64; src++ {
			d := p.Dest(nil, src, 64)
			if d < 0 || d >= 64 {
				t.Fatalf("%s: out of range: %d", p.Name(), d)
			}
			if seen[d] {
				t.Fatalf("%s: destination %d repeated", p.Name(), d)
			}
			seen[d] = true
		}
	}
}

func TestPatternRequiresValidNodeCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two accepted")
		}
	}()
	(BitComplement{}).Dest(nil, 0, 48)
}

func TestPermutationTable(t *testing.T) {
	p := &Permutation{Label: "custom", Table: []int{2, 0, 1}}
	if p.Name() != "custom" || p.Dest(nil, 0, 3) != 2 {
		t.Error("permutation table broken")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "uniform-noself", "transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor"} {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("name mismatch: %s vs %s", p.Name(), name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestSizeDists(t *testing.T) {
	rng := sim.NewRNG(4)
	if FixedSize(4).Sample(rng) != 4 || FixedSize(4).Mean() != 4 {
		t.Error("fixed size broken")
	}
	b := DefaultBimodal()
	if b.Mean() != 2.5 {
		t.Errorf("bimodal mean = %v", b.Mean())
	}
	short, long := 0, 0
	for i := 0; i < 10000; i++ {
		switch b.Sample(rng) {
		case 1:
			short++
		case 4:
			long++
		default:
			t.Fatal("unexpected size")
		}
	}
	if f := float64(short) / 10000; f < 0.47 || f > 0.53 {
		t.Errorf("short fraction = %.3f", f)
	}
	_ = long
}

func TestHotspotSplitsTraffic(t *testing.T) {
	rng := sim.NewRNG(10)
	h := Hotspot{Hot: 5, Fraction: 0.3}
	hot, total := 0, 50000
	for i := 0; i < total; i++ {
		if h.Dest(rng, 1, 64) == 5 {
			hot++
		}
	}
	// 30% direct plus 1/64 of the uniform remainder.
	want := 0.3 + 0.7/64
	f := float64(hot) / float64(total)
	if f < want-0.02 || f > want+0.02 {
		t.Errorf("hotspot fraction = %.3f, want ~%.3f", f, want)
	}
	if h.Name() == "" {
		t.Error("empty name")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
