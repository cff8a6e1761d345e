// Package workload generates the synthetic benchmark instruction streams
// the execution-driven CMP simulator runs. Each benchmark from the paper's
// evaluation (SPLASH-2: barnes, fft, lu; PARSEC: blackscholes, canneal) is
// reduced to the statistical profile the paper itself uses to characterize
// it — network access rate, L2 miss rate, kernel-traffic share, timer rate
// (Tables III and IV) — and a generator reproduces memory-access streams
// with those statistics.
//
// Address-space layout (line addresses):
//
//	private region: per-core hot working set, mostly L1-resident
//	shared  region: one global region all cores touch (coherence traffic)
//	stream  region: per-core streaming/cold region sized to force L2 misses
//	kernel  regions: a shared kernel region plus per-core kernel stacks
package workload

import (
	"fmt"
	"strings"

	"noceval/internal/cmp"
	"noceval/internal/sim"
)

// Clock selects the modelled core clock frequency, which sets the timer-
// interrupt interval in cycles (the interrupt rate is fixed in wall-clock
// time, §V).
type Clock int

// Modelled clock frequencies: the Simics Serengeti default and a modern
// high-end core.
const (
	Clock75MHz Clock = iota
	Clock3GHz
)

// String returns the clock's name.
func (c Clock) String() string {
	if c == Clock3GHz {
		return "3GHz"
	}
	return "75MHz"
}

// ParseClock maps a clock's name, in any case, to the Clock; the empty name
// is the 3 GHz default.
func ParseClock(s string) (Clock, error) {
	switch strings.ToLower(s) {
	case "", "3ghz":
		return Clock3GHz, nil
	case "75mhz":
		return Clock75MHz, nil
	default:
		return 0, fmt.Errorf("unknown clock %q", s)
	}
}

// clockScale is the ratio of cycles per wall-clock interval relative to
// the 75 MHz baseline.
func (c Clock) clockScale() int64 {
	if c == Clock3GHz {
		return 40
	}
	return 1
}

// Profile is the statistical model of one benchmark.
type Profile struct {
	Name string

	// UserInsts is the per-core user instruction budget (a scaled-down run;
	// the paper runs full benchmarks for days, we run the same pipeline at
	// laptop scale).
	UserInsts int64

	// MemFrac is the fraction of user instructions that are memory
	// operations; StoreFrac the store share of those.
	MemFrac   float64
	StoreFrac float64

	// Region mix: fractions of memory operations aimed at the cold
	// streaming region and the shared region; the rest hit the private hot
	// region. Region sizes are in cache lines.
	ColdFrac     float64
	SharedFrac   float64
	PrivateLines int
	SharedLines  int
	StreamLines  int

	// Barriers splits the run into that many +1 barrier-separated phases.
	Barriers int

	// Syscall kernel instructions at thread start and end (runtime-
	// independent kernel traffic: thread creation, joins — §V).
	SyscallStartInsts int64
	SyscallEndInsts   int64

	// Kernel stream characteristics. KernelColdFrac is the share of kernel
	// memory ops aimed at the (warmed) shared kernel region;
	// KernelStreamFrac the share streaming through unwarmed kernel buffers
	// (sets the OS L2 miss rate of Table IV).
	KernelMemFrac     float64
	KernelStoreFrac   float64
	KernelColdFrac    float64
	KernelStreamFrac  float64
	KernelSharedLines int

	// TimerPeriod75 is the cycle interval between timer interrupts at
	// 75 MHz (x40 at 3 GHz); TimerHandlerInsts the handler length.
	TimerPeriod75     int64
	TimerHandlerInsts int64
}

// TimerPeriod returns the interrupt interval in cycles at the given clock.
func (p Profile) TimerPeriod(c Clock) int64 {
	if p.TimerPeriod75 <= 0 {
		return 0
	}
	return p.TimerPeriod75 * c.clockScale()
}

// Region bases in line-address space; regions never overlap.
const (
	privateBase = uint64(1) << 24
	sharedBase  = uint64(1) << 40
	streamBase  = uint64(1) << 41
	kSharedBase = uint64(1) << 42
	kStackBase  = uint64(1) << 43
	kStreamBase = uint64(1) << 44
	coreStride  = uint64(1) << 20 // per-core sub-region spacing
)

// Thread is one core's instruction stream generator; it implements
// cmp.Program.
type Thread struct {
	p     Profile
	core  int
	cores int
	rng   *sim.RNG

	emitted   int64
	phase     int // barrier phases passed
	didStart  bool
	didEnd    bool
	pendingOp bool // alternate compute gap / memory op

	streamPtr  uint64
	kStreamPtr uint64
}

// NewThread builds the generator for one core.
func NewThread(p Profile, core, cores int, seed uint64) *Thread {
	return &Thread{
		p:     p,
		core:  core,
		cores: cores,
		rng:   sim.NewRNG(seed ^ uint64(core)*0x9e3779b97f4a7c15 ^ 0x5851f42d4c957f2d),
	}
}

// lineToAddr converts a line address to a byte address (64-byte lines).
func lineToAddr(line uint64) uint64 { return line << 6 }

// userAddr draws a user memory-op line address per the region mix.
func (t *Thread) userAddr() uint64 {
	r := t.rng.Float64()
	switch {
	case r < t.p.ColdFrac && t.p.StreamLines > 0:
		// Sequential streaming through the per-core cold region.
		t.streamPtr++
		return streamBase + uint64(t.core)*coreStride + t.streamPtr%uint64(t.p.StreamLines)
	case r < t.p.ColdFrac+t.p.SharedFrac && t.p.SharedLines > 0:
		return sharedBase + uint64(t.rng.Intn(t.p.SharedLines))
	default:
		n := t.p.PrivateLines
		if n < 1 {
			n = 1
		}
		return privateBase + uint64(t.core)*coreStride + uint64(t.rng.Intn(n))
	}
}

// NextUser implements cmp.Program.
func (t *Thread) NextUser() cmp.Op {
	if !t.didStart {
		t.didStart = true
		if t.p.SyscallStartInsts > 0 {
			return cmp.Op{Kind: cmp.OpSyscall, N: t.p.SyscallStartInsts}
		}
	}
	if t.emitted >= t.p.UserInsts {
		if !t.didEnd {
			t.didEnd = true
			if t.p.SyscallEndInsts > 0 {
				return cmp.Op{Kind: cmp.OpSyscall, N: t.p.SyscallEndInsts}
			}
		}
		return cmp.Op{Kind: cmp.OpDone}
	}
	// Barrier phase boundaries.
	if t.p.Barriers > 0 {
		phaseLen := t.p.UserInsts / int64(t.p.Barriers+1)
		if phaseLen > 0 && t.emitted >= int64(t.phase+1)*phaseLen && t.phase < t.p.Barriers {
			t.phase++
			return cmp.Op{Kind: cmp.OpBarrier}
		}
	}
	// Alternate compute gaps and memory ops so that MemFrac of
	// instructions are memory operations.
	if !t.pendingOp && t.p.MemFrac > 0 {
		t.pendingOp = true
		gap := int64(1)
		if t.p.MemFrac < 1 {
			gap = int64(t.rng.Geometric(t.p.MemFrac)) - 1 // instructions before the mem op
		}
		if gap > 0 {
			t.emitted += gap
			return cmp.Op{Kind: cmp.OpCompute, N: gap}
		}
	}
	t.pendingOp = false
	t.emitted++
	addr := lineToAddr(t.userAddr())
	if t.rng.Bernoulli(t.p.StoreFrac) {
		return cmp.Op{Kind: cmp.OpStore, Addr: addr}
	}
	return cmp.Op{Kind: cmp.OpLoad, Addr: addr}
}

// kernelAddr draws a kernel memory-op line address.
func (t *Thread) kernelAddr() uint64 {
	r := t.rng.Float64()
	switch {
	case r < t.p.KernelStreamFrac:
		t.kStreamPtr++
		return kStreamBase + uint64(t.core)*coreStride + t.kStreamPtr%coreStride
	case r < t.p.KernelStreamFrac+t.p.KernelColdFrac && t.p.KernelSharedLines > 0:
		return kSharedBase + uint64(t.rng.Intn(t.p.KernelSharedLines))
	default:
		return kStackBase + uint64(t.core)*coreStride + uint64(t.rng.Intn(64))
	}
}

// NextKernel implements cmp.Program.
func (t *Thread) NextKernel() cmp.Op {
	if t.rng.Bernoulli(t.p.KernelMemFrac) {
		addr := lineToAddr(t.kernelAddr())
		if t.rng.Bernoulli(t.p.KernelStoreFrac) {
			return cmp.Op{Kind: cmp.OpStore, Addr: addr}
		}
		return cmp.Op{Kind: cmp.OpLoad, Addr: addr}
	}
	return cmp.Op{Kind: cmp.OpCompute, N: 1}
}

// Programs builds one Thread per core.
func Programs(p Profile, cores int, seed uint64) []cmp.Program {
	out := make([]cmp.Program, cores)
	for i := 0; i < cores; i++ {
		out[i] = NewThread(p, i, cores, seed)
	}
	return out
}

// ByName returns the built-in profile with the given benchmark name.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// All returns the five benchmark profiles of the paper's evaluation, in the
// order Fig 14 lists them. The numbers are tuned so the measured NAR, L2
// miss rates and kernel-traffic shares reproduce the relative
// characteristics of Tables III and IV at this repository's scaled-down
// run lengths.
func All() []Profile {
	return []Profile{
		// blackscholes: embarrassingly parallel, tiny working set, almost
		// no sharing, lowest L2 miss rate, kernel traffic dominated by
		// thread create/join syscalls.
		{
			Name:      "blackscholes",
			UserInsts: 60000,
			MemFrac:   0.25, StoreFrac: 0.25,
			ColdFrac: 0.0002, SharedFrac: 0.015,
			PrivateLines: 320, SharedLines: 2048, StreamLines: 4096,
			Barriers:          1,
			SyscallStartInsts: 2600, SyscallEndInsts: 2600,
			KernelMemFrac: 0.35, KernelStoreFrac: 0.3, KernelColdFrac: 0.5, KernelStreamFrac: 0.012, KernelSharedLines: 1024,
			TimerPeriod75: 41000, TimerHandlerInsts: 260,
		},
		// lu: blocked dense factorization; moderate sharing with real
		// producer/consumer reuse, significant L2 misses, and the largest
		// timer-traffic share (lowest NAR makes kernel traffic dominant).
		{
			Name:      "lu",
			UserInsts: 60000,
			MemFrac:   0.12, StoreFrac: 0.3,
			ColdFrac: 0.018, SharedFrac: 0.035,
			PrivateLines: 288, SharedLines: 4096, StreamLines: 600000,
			Barriers:          4,
			SyscallStartInsts: 2400, SyscallEndInsts: 2400,
			KernelMemFrac: 0.3, KernelStoreFrac: 0.3, KernelColdFrac: 0.4, KernelStreamFrac: 0.004, KernelSharedLines: 1024,
			TimerPeriod75: 12500, TimerHandlerInsts: 260,
		},
		// canneal: pointer-chasing over a huge graph; high NAR, large L2
		// miss rate from the enormous random working set.
		{
			Name:      "canneal",
			UserInsts: 60000,
			MemFrac:   0.3, StoreFrac: 0.2,
			ColdFrac: 0.028, SharedFrac: 0.07,
			PrivateLines: 288, SharedLines: 60000, StreamLines: 800000,
			Barriers:          0,
			SyscallStartInsts: 2800, SyscallEndInsts: 2800,
			KernelMemFrac: 0.32, KernelStoreFrac: 0.3, KernelColdFrac: 0.45, KernelStreamFrac: 0.022, KernelSharedLines: 1024,
			TimerPeriod75: 26000, TimerHandlerInsts: 260,
		},
		// fft: all-to-all transpose phases streaming through matrices far
		// larger than the L2: the highest L2 miss rate in the suite.
		{
			Name:      "fft",
			UserInsts: 60000,
			MemFrac:   0.22, StoreFrac: 0.35,
			ColdFrac: 0.075, SharedFrac: 0.025,
			PrivateLines: 288, SharedLines: 4096, StreamLines: 1000000,
			Barriers:          3,
			SyscallStartInsts: 1300, SyscallEndInsts: 1300,
			KernelMemFrac: 0.4, KernelStoreFrac: 0.3, KernelColdFrac: 0.6, KernelStreamFrac: 0.016, KernelSharedLines: 2048,
			TimerPeriod75: 18000, TimerHandlerInsts: 260,
		},
		// barnes: octree N-body; the most network traffic per cycle but
		// excellent locality once fetched — near-zero L2 miss rate.
		{
			Name:      "barnes",
			UserInsts: 60000,
			MemFrac:   0.35, StoreFrac: 0.2,
			ColdFrac: 0.001, SharedFrac: 0.045,
			PrivateLines: 288, SharedLines: 6000, StreamLines: 4096,
			Barriers:          2,
			SyscallStartInsts: 3400, SyscallEndInsts: 3400,
			KernelMemFrac: 0.3, KernelStoreFrac: 0.3, KernelColdFrac: 0.4, KernelStreamFrac: 0.013, KernelSharedLines: 1024,
			TimerPeriod75: 67000, TimerHandlerInsts: 260,
		},
	}
}

// lineRegion is n consecutive line addresses from base.
type lineRegion struct {
	base uint64
	n    int
}

// chunks calls fn on the region's lines in order, at most len(buf) at a
// time, so a region of any size costs one small buffer.
func (r lineRegion) chunks(buf []uint64, fn func([]uint64)) {
	for done := 0; done < r.n; {
		k := min(r.n-done, len(buf))
		for i := range buf[:k] {
			buf[i] = r.base + uint64(done+i)
		}
		fn(buf[:k])
		done += k
	}
}

// warmL1 returns the regions preloaded into core c's L1 in Modified state:
// its private hot set and its kernel stack.
func (p Profile) warmL1(c int) [2]lineRegion {
	return [2]lineRegion{
		{privateBase + uint64(c)*coreStride, p.PrivateLines},
		{kStackBase + uint64(c)*coreStride, 64},
	}
}

// warmL2 returns the regions preloaded into the shared L2: the user and
// kernel shared regions.
func (p Profile) warmL2() [2]lineRegion {
	return [2]lineRegion{{sharedBase, p.SharedLines}, {kSharedBase, p.KernelSharedLines}}
}

// Warm applies the profile's cache-warming plan (warmL1 for every core, then
// warmL2) to a system and resets cache statistics so measurements start from
// the warmed state. This models running from a warmed-up checkpoint
// (§IV-A). Lines are installed as the regions are walked, never collected.
func (p Profile) Warm(sys *cmp.System, cores int) {
	buf := make([]uint64, 512)
	for c := 0; c < cores; c++ {
		for _, r := range p.warmL1(c) {
			r.chunks(buf, func(lines []uint64) { sys.WarmL1(c, lines, cmp.Modified) })
		}
	}
	for _, r := range p.warmL2() {
		r.chunks(buf, sys.WarmL2)
	}
	sys.ResetCacheStats()
}
