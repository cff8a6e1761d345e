package workload

import (
	"testing"
	"testing/quick"

	"noceval/internal/cmp"
)

func TestProfilesWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, p := range All() {
		if p.Name == "" || names[p.Name] {
			t.Errorf("bad or duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		if p.UserInsts <= 0 {
			t.Errorf("%s: no instructions", p.Name)
		}
		if p.MemFrac <= 0 || p.MemFrac >= 1 {
			t.Errorf("%s: MemFrac %v out of (0,1)", p.Name, p.MemFrac)
		}
		if p.ColdFrac+p.SharedFrac >= 1 {
			t.Errorf("%s: region fractions exceed 1", p.Name)
		}
		if p.TimerPeriod75 <= 0 {
			t.Errorf("%s: no timer period", p.Name)
		}
	}
	if len(names) != 5 {
		t.Errorf("expected 5 benchmarks, got %d", len(names))
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("lu")
	if err != nil || p.Name != "lu" {
		t.Errorf("ByName(lu) = %v, %v", p.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if got := len(All()); got != 5 {
		t.Errorf("All() returned %d entries", got)
	}
}

func TestTimerPeriodScalesWithClock(t *testing.T) {
	p, _ := ByName("blackscholes")
	p75 := p.TimerPeriod(Clock75MHz)
	p3g := p.TimerPeriod(Clock3GHz)
	if p3g != 40*p75 {
		t.Errorf("3GHz period %d != 40 * 75MHz period %d", p3g, p75)
	}
	none := Profile{}
	if none.TimerPeriod(Clock3GHz) != 0 {
		t.Error("zero period not preserved")
	}
}

func TestParseClock(t *testing.T) {
	for s, want := range map[string]Clock{
		"":      Clock3GHz,
		"3ghz":  Clock3GHz,
		"3GHz":  Clock3GHz,
		"75mhz": Clock75MHz,
		"75MHz": Clock75MHz,
	} {
		got, err := ParseClock(s)
		if err != nil || got != want {
			t.Errorf("ParseClock(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseClock("1thz"); err == nil || err.Error() != `unknown clock "1thz"` {
		t.Errorf("bad clock: error %v", err)
	}
}

func TestClockStrings(t *testing.T) {
	if Clock75MHz.String() != "75MHz" || Clock3GHz.String() != "3GHz" {
		t.Error("clock strings broken")
	}
}

func TestThreadEmitsExactInstructionBudget(t *testing.T) {
	p, _ := ByName("fft")
	p.UserInsts = 5000
	th := NewThread(p, 0, 16, 1)
	var insts int64
	syscalls := 0
	barriers := 0
	for i := 0; i < 1_000_000; i++ {
		op := th.NextUser()
		switch op.Kind {
		case cmp.OpDone:
			if insts < p.UserInsts {
				t.Fatalf("done after %d user instructions, budget %d", insts, p.UserInsts)
			}
			if barriers != p.Barriers {
				t.Errorf("emitted %d barriers, want %d", barriers, p.Barriers)
			}
			if syscalls != 2 {
				t.Errorf("emitted %d syscalls, want 2 (start+end)", syscalls)
			}
			// Done must repeat forever.
			if th.NextUser().Kind != cmp.OpDone {
				t.Error("Done not sticky")
			}
			return
		case cmp.OpCompute:
			insts += op.N
		case cmp.OpLoad, cmp.OpStore:
			insts++
		case cmp.OpSyscall:
			syscalls++
		case cmp.OpBarrier:
			barriers++
		}
	}
	t.Fatal("thread never finished")
}

func TestThreadMemFraction(t *testing.T) {
	p, _ := ByName("barnes")
	p.UserInsts = 200000
	p.Barriers = 0
	p.SyscallStartInsts, p.SyscallEndInsts = 0, 0
	th := NewThread(p, 0, 16, 2)
	var mem, total int64
	for {
		op := th.NextUser()
		if op.Kind == cmp.OpDone {
			break
		}
		switch op.Kind {
		case cmp.OpCompute:
			total += op.N
		case cmp.OpLoad, cmp.OpStore:
			total++
			mem++
		}
	}
	frac := float64(mem) / float64(total)
	if frac < p.MemFrac*0.9 || frac > p.MemFrac*1.1 {
		t.Errorf("memory fraction = %.3f, want ~%.3f", frac, p.MemFrac)
	}
}

func TestThreadAddressesStayInRegions(t *testing.T) {
	p, _ := ByName("canneal")
	p.UserInsts = 20000
	err := quick.Check(func(core uint8, seed uint64) bool {
		c := int(core) % 16
		th := NewThread(p, c, 16, seed)
		for i := 0; i < 2000; i++ {
			op := th.NextUser()
			if op.Kind == cmp.OpDone {
				break
			}
			if op.Kind != cmp.OpLoad && op.Kind != cmp.OpStore {
				continue
			}
			line := op.Addr >> 6
			switch {
			case line >= privateBase && line < privateBase+16*coreStride:
				if int((line-privateBase)/coreStride) != c {
					return false // crossed into another core's private region
				}
			case line >= sharedBase && line < sharedBase+uint64(p.SharedLines):
			case line >= streamBase && line < streamBase+16*coreStride:
				if int((line-streamBase)/coreStride) != c {
					return false
				}
			default:
				return false // outside every user region
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestKernelStreamNeverDone(t *testing.T) {
	p, _ := ByName("lu")
	th := NewThread(p, 3, 16, 5)
	memOps := 0
	for i := 0; i < 10000; i++ {
		op := th.NextKernel()
		if op.Kind == cmp.OpDone {
			t.Fatal("kernel stream returned Done")
		}
		if op.Kind == cmp.OpLoad || op.Kind == cmp.OpStore {
			memOps++
			line := op.Addr >> 6
			if line < kSharedBase {
				t.Fatalf("kernel access to user region: %#x", line)
			}
		}
	}
	frac := float64(memOps) / 10000
	if frac < p.KernelMemFrac*0.85 || frac > p.KernelMemFrac*1.15 {
		t.Errorf("kernel mem fraction = %.3f, want ~%.3f", frac, p.KernelMemFrac)
	}
}

func TestWarmSetsCoverRegions(t *testing.T) {
	p, _ := ByName("fft")
	count := func(rs [2]lineRegion) int { return rs[0].n + rs[1].n }
	if n := count(p.warmL1(0)); n != p.PrivateLines+64 {
		t.Errorf("core 0 warm lines = %d, want %d", n, p.PrivateLines+64)
	}
	if n := count(p.warmL2()); n != p.SharedLines+p.KernelSharedLines {
		t.Errorf("l2 warm lines = %d, want %d", n, p.SharedLines+p.KernelSharedLines)
	}
	// Per-core sets must be disjoint, and a region walked in chunks yields
	// each of its lines once, in order.
	seen := map[uint64]bool{}
	for c := 0; c < 16; c++ {
		for _, r := range p.warmL1(c) {
			next := r.base
			r.chunks(make([]uint64, 100), func(lines []uint64) {
				for _, l := range lines {
					if l != next {
						t.Fatalf("core %d region %#x: line %#x, want %#x", c, r.base, l, next)
					}
					next++
					if seen[l] {
						t.Fatalf("line %#x warmed for two cores", l)
					}
					seen[l] = true
				}
			})
			if next != r.base+uint64(r.n) {
				t.Errorf("core %d region %#x: walked %d lines, want %d", c, r.base, next-r.base, r.n)
			}
		}
	}
}

func TestProgramsBuildsDistinctThreads(t *testing.T) {
	p, _ := ByName("blackscholes")
	progs := Programs(p, 16, 9)
	if len(progs) != 16 {
		t.Fatalf("programs = %d", len(progs))
	}
	// Different cores draw different first memory addresses eventually.
	a := progs[0].(*Thread)
	b := progs[1].(*Thread)
	var addrA, addrB uint64
	for addrA == 0 || addrB == 0 {
		if op := a.NextUser(); op.Kind == cmp.OpLoad || op.Kind == cmp.OpStore {
			addrA = op.Addr
		}
		if op := b.NextUser(); op.Kind == cmp.OpLoad || op.Kind == cmp.OpStore {
			addrB = op.Addr
		}
	}
	if addrA == addrB {
		t.Error("two cores produced identical first addresses (seeding broken?)")
	}
}
