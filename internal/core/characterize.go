package core

import (
	"context"
	"fmt"

	"noceval/internal/closedloop"
	"noceval/internal/workload"
)

// BenchmarkModel is the paper's reduction of a benchmark to the handful of
// statistics the enhanced batch model consumes (Tables III and IV): the
// network access rate measured under an ideal network, the L2 miss rate for
// the reply model, and the kernel-traffic parameters of §V.
type BenchmarkModel struct {
	Name  string
	Clock workload.Clock

	// IdealCycles is the runtime under the ideal network; TotalFlits the
	// traffic injected during it (the two ingredients of Table III).
	IdealCycles int64
	TotalFlits  int64

	// NAR is the request injection rate per node per cycle under the ideal
	// network: the enhanced injection model's parameter (§IV-C1), split by
	// class as in Table IV.
	NAR       float64
	UserNAR   float64
	KernelNAR float64

	// L2Miss feeds the probabilistic reply model (§IV-C2).
	L2Miss       float64
	KernelL2Miss float64

	// Kernel model (§V): StaticKernelFrac is the runtime-independent
	// kernel work as a fraction of user work; TimerPeriod and TimerBatch
	// describe the runtime-proportional timer traffic.
	StaticKernelFrac float64
	TimerPeriod      int64
	TimerBatch       int
}

// Characterize measures a benchmark's model parameters by running it twice
// on the ideal network: once without the timer (isolating the runtime-
// independent kernel traffic) and once with it. This mirrors §V:
// "after determining the rate of the periodic timer interrupt from the
// execution-driven simulations".
func Characterize(bench string, clock workload.Clock, seed uint64) (*BenchmarkModel, error) {
	return characterize(nil, bench, clock, seed)
}

// characterize is Characterize with a cancellation context (see barrier):
// both underlying execution-driven runs are cancellable.
func characterize(ctx context.Context, bench string, clock workload.Clock, seed uint64) (*BenchmarkModel, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	base := ExecParams{Benchmark: bench, Clock: clock, Ideal: true, Seed: seed}

	noTimer, err := exec(ctx, NetworkParams{}, base)
	if err != nil {
		return nil, fmt.Errorf("core: characterize %s (no timer): %w", bench, err)
	}
	withTimer := noTimer
	timerPeriod := prof.TimerPeriod(clock)
	if timerPeriod > 0 {
		t := base
		t.Timer = true
		withTimer, err = exec(ctx, NetworkParams{}, t)
		if err != nil {
			return nil, fmt.Errorf("core: characterize %s (timer): %w", bench, err)
		}
	}

	m := &BenchmarkModel{
		Name:        bench,
		Clock:       clock,
		IdealCycles: withTimer.Cycles,
		TotalFlits:  withTimer.TotalFlits,
		TimerPeriod: timerPeriod,
	}
	n := float64(16) // Table II tile count
	if withTimer.Cycles > 0 {
		cyc := float64(withTimer.Cycles) * n
		m.NAR = float64(withTimer.UserRequests+withTimer.KernelRequests) / cyc
		m.UserNAR = float64(withTimer.UserRequests) / cyc
		m.KernelNAR = float64(withTimer.KernelRequests) / cyc
	}
	m.L2Miss = withTimer.L2MissRate[0]
	m.KernelL2Miss = withTimer.L2MissRate[1]
	if noTimer.UserRequests > 0 {
		m.StaticKernelFrac = float64(noTimer.KernelRequests) / float64(noTimer.UserRequests)
	}
	// Timer-driven kernel requests per interrupt per node.
	extra := withTimer.KernelRequests - noTimer.KernelRequests
	if withTimer.TimerInterrupts > 0 && extra > 0 {
		m.TimerBatch = int(float64(extra)/(float64(withTimer.TimerInterrupts)*n) + 0.5)
		if m.TimerBatch < 1 {
			m.TimerBatch = 1
		}
	}
	return m, nil
}

// Variant enumerates the batch-model refinements of §IV-C and §V.
type Variant int

// Batch-model variants, from the baseline to the fully enhanced model.
const (
	BA        Variant = iota // baseline batch model (MSHR limit only)
	BAInj                    // + NAR injection model
	BARe                     // + reply-latency model
	BAInjRe                  // + both
	BAInjReOS                // + both + kernel-traffic model
)

// String returns the paper's label for the variant.
func (v Variant) String() string {
	switch v {
	case BA:
		return "BA"
	case BAInj:
		return "BA_inj"
	case BARe:
		return "BA_re"
	case BAInjRe:
		return "BA_inj+re"
	case BAInjReOS:
		return "BA_inj+re+OS"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// BatchParams builds the closed-loop configuration that models this
// benchmark under the given variant. b is the batch size and m the
// outstanding-request limit; the paper's Table II cores block on loads
// with a small store buffer, which the batch model approximates with a
// small m.
func (bm *BenchmarkModel) BatchParams(b, m int, v Variant) BatchParams {
	bp := BatchParams{B: b, M: m}
	if v == BAInj || v == BAInjRe || v == BAInjReOS {
		bp.NAR = bm.NAR
	}
	if v == BARe || v == BAInjRe || v == BAInjReOS {
		bp.Reply = closedloop.ProbabilisticReply{
			L2Latency:     20,
			MemoryLatency: 300,
			MissRate:      bm.L2Miss,
		}
	}
	if v == BAInjReOS {
		bp.Kernel = &closedloop.KernelConfig{
			StaticFraction: bm.StaticKernelFrac,
			TimerPeriod:    bm.TimerPeriod,
			TimerBatch:     bm.stableTimerBatch(),
			KernelNAR:      bm.KernelNAR,
		}
	}
	return bp
}

// stableTimerBatch caps the per-interrupt kernel work so that at most
// ~40% of each timer period is spent serving it. A real system finishes
// its handler before the next tick by construction; without this cap a
// scaled-down timer period combined with a low kernel injection rate can
// make the batch model accumulate work faster than it drains and never
// terminate.
func (bm *BenchmarkModel) stableTimerBatch() int {
	if bm.TimerPeriod <= 0 || bm.TimerBatch <= 0 {
		return bm.TimerBatch
	}
	kNAR := bm.KernelNAR
	if kNAR <= 0 || kNAR > 1 {
		kNAR = 1
	}
	// Per-transaction service time at m=1: the injection gap plus the
	// reply-model latency plus a nominal network round trip.
	service := 1/kNAR + 20 + bm.KernelL2Miss*300 + 30
	maxBatch := int(0.4 * float64(bm.TimerPeriod) / service)
	if maxBatch < 1 {
		maxBatch = 1
	}
	if bm.TimerBatch > maxBatch {
		return maxBatch
	}
	return bm.TimerBatch
}
