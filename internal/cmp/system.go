package cmp

import (
	"context"
	"fmt"

	"noceval/internal/engine"
	"noceval/internal/router"
	"noceval/internal/sim"
	"noceval/internal/stats"
)

// Config describes a CMP system (defaults follow Table II).
type Config struct {
	Tiles int

	// Ctx, when non-nil, makes the run cancellable: the engine polls it at
	// fast-forward boundaries and every ~1k stepped cycles, and a
	// cancelled run returns with Result.Canceled set (and Completed
	// false).
	Ctx context.Context

	L1Size, L1Ways int
	L2SizePerTile  int
	L2Ways         int
	LineBytes      int

	L1Latency  int64
	L2Latency  int64
	MemLatency int64

	StoreBufferSize int

	// MaxLoadMLP bounds the memory-level parallelism of loads: how many
	// load misses may be outstanding per core. The default 1 models the
	// paper's in-order SPARC cores with blocking loads; larger values
	// model MSHR-equipped cores (§II-B1), the execution-side analog of
	// the batch model's m parameter.
	MaxLoadMLP int
	// LoadDepFrac is the probability that execution depends on an
	// outstanding load and must stall on use. 1 (the default via zero
	// value handling) makes every load blocking regardless of MaxLoadMLP.
	LoadDepFrac float64

	// TimerPeriod is the cycle interval between timer interrupts; zero
	// disables them. TimerHandlerInsts is the kernel handler length.
	TimerPeriod       int64
	TimerHandlerInsts int64

	MaxCycles int64

	// SampleInterval, when positive, records the injection-rate timeline
	// (Fig 21); CollectMatrix accumulates the traffic matrix (Fig 13b).
	SampleInterval int64
	CollectMatrix  bool
}

// DefaultConfig returns the Table II configuration: 16 tiles, 32KB 4-way
// L1s, 512KB L2 bank per tile, 64B lines, 2/10/300-cycle latencies.
func DefaultConfig() Config {
	return Config{
		Tiles:           16,
		L1Size:          32 * 1024,
		L1Ways:          4,
		L2SizePerTile:   512 * 1024,
		L2Ways:          8,
		LineBytes:       64,
		L1Latency:       2,
		L2Latency:       10,
		MemLatency:      300,
		StoreBufferSize: 8,
		MaxCycles:       200_000_000,
	}
}

// TimelineSample is one bucket of the injection-rate timeline, in flits
// per cycle summed over all tiles, split user/kernel.
type TimelineSample struct {
	Cycle      int64
	UserRate   float64
	KernelRate float64
}

// Result summarizes one execution-driven run.
type Result struct {
	Cycles    int64
	Completed bool
	// Canceled reports that Config.Ctx aborted the run mid-flight; the
	// partial statistics below must not be interpreted or cached.
	Canceled bool `json:",omitempty"`

	UserInsts   int64
	KernelInsts int64

	TotalPackets  int64
	KernelPackets int64
	TotalFlits    int64
	KernelFlits   int64

	// Request packets (GetS/GetM) split user/kernel: the transaction rate
	// the enhanced batch model's NAR parameter mirrors.
	UserRequests   int64
	KernelRequests int64

	// NAR is flits/cycle/node over the whole run; meaningful as the
	// paper's network access rate when run on the ideal fabric (Table III).
	NAR       float64
	UserNAR   float64
	KernelNAR float64

	// L1 and L2 miss rates split by access class (Table III/IV).
	L1MissRate      [2]float64 // [user, kernel]
	L2MissRate      [2]float64
	TimerInterrupts int64
	BarrierEpisodes int64

	Timeline []TimelineSample
	// Matrix is the full source/destination flit matrix (Fig 13b: actual
	// injected traffic); AppMatrix counts only user request messages — the
	// application's explicit communication pattern (Fig 13a).
	Matrix    *stats.Heatmap
	AppMatrix *stats.Heatmap
}

// System is one execution-driven CMP simulation instance.
type System struct {
	cfg    Config
	fabric Fabric
	tiles  int

	tileArr []*tile
	homes   []*home
	events  sim.EventHeap[homeEvent]

	// Barrier state.
	barrierWaiting uint64
	barrierCount   int

	// Accounting.
	totalPackets, kernelPackets int64
	totalFlits, kernelFlits     int64
	userReqs, kernelReqs        int64
	bucketUser, bucketKernel    int64
	bucketStart                 int64
	timeline                    []TimelineSample
	matrix                      *stats.Heatmap
	appMatrix                   *stats.Heatmap
	timerInterrupts             int64
	barrierEpisodes             int64
}

// NewSystem builds a CMP over the given fabric with one program per tile.
func NewSystem(cfg Config, fabric Fabric, programs []Program) (*System, error) {
	if cfg.Tiles < 2 || cfg.Tiles > 64 {
		return nil, fmt.Errorf("cmp: tile count %d outside [2, 64]", cfg.Tiles)
	}
	if len(programs) != cfg.Tiles {
		return nil, fmt.Errorf("cmp: %d programs for %d tiles", len(programs), cfg.Tiles)
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 200_000_000
	}
	if cfg.StoreBufferSize < 1 {
		cfg.StoreBufferSize = 1
	}
	if cfg.MaxLoadMLP < 1 {
		cfg.MaxLoadMLP = 1
	}
	if cfg.LoadDepFrac <= 0 || cfg.LoadDepFrac > 1 {
		cfg.LoadDepFrac = 1
	}
	s := &System{cfg: cfg, fabric: fabric, tiles: cfg.Tiles}
	for i := 0; i < cfg.Tiles; i++ {
		l1 := NewCache(cfg.L1Size, cfg.L1Ways, cfg.LineBytes)
		l2 := NewCache(cfg.L2SizePerTile, cfg.L2Ways, cfg.LineBytes)
		s.tileArr = append(s.tileArr, newTile(s, i, l1, programs[i]))
		s.homes = append(s.homes, newHome(s, i, l2))
	}
	if cfg.CollectMatrix {
		s.matrix = stats.NewHeatmap(cfg.Tiles, cfg.Tiles)
		s.appMatrix = stats.NewHeatmap(cfg.Tiles, cfg.Tiles)
	}
	fabric.SetOnReceive(s.receive)
	return s, nil
}

// homeOf returns the home tile of a line address (static interleaving).
func (s *System) homeOf(lineAddr uint64) int { return int(lineAddr % uint64(s.tiles)) }

// send encodes and injects a protocol message.
func (s *System) send(src, dst int, m Msg) {
	size := m.Type.size()
	p := s.fabric.NewPacket(src, dst, size, m.Type.kind())
	p.Aux = m.encode()
	s.fabric.Send(p)

	s.totalPackets++
	s.totalFlits += int64(size)
	if m.Type == MsgGetS || m.Type == MsgGetM {
		if m.Kernel {
			s.kernelReqs++
		} else {
			s.userReqs++
		}
	}
	if m.Kernel {
		s.kernelPackets++
		s.kernelFlits += int64(size)
		s.bucketKernel += int64(size)
	} else {
		s.bucketUser += int64(size)
	}
	if s.matrix != nil {
		s.matrix.Addf(src, dst, float64(size))
		if !m.Kernel && (m.Type == MsgGetS || m.Type == MsgGetM) {
			s.appMatrix.Addf(src, dst, float64(size))
		}
	}
}

// receive dispatches an arrived packet to the right controller.
func (s *System) receive(now int64, p *router.Packet) {
	m := decodeMsg(p.Aux)
	switch m.Type {
	case MsgGetS, MsgGetM, MsgInvAck, MsgWBData, MsgWriteback:
		s.homes[p.Dst].handle(m, p.Src)
	default:
		s.tileArr[p.Dst].handle(m, p.Src)
	}
}

// enterBarrier records a core reaching the barrier; the last arrival
// releases everyone.
func (s *System) enterBarrier(id int) {
	s.barrierWaiting |= 1 << uint(id)
	s.barrierCount++
	if s.barrierCount == s.tiles {
		s.barrierEpisodes++
		s.barrierWaiting = 0
		s.barrierCount = 0
		for _, t := range s.tileArr {
			if t.state == coreAtBarrier {
				t.state = coreRunning
				t.fetch()
			}
		}
	}
}

// done reports whether every core finished and all memory activity drained.
func (s *System) done() bool {
	for _, t := range s.tileArr {
		if t.state != coreDone || !t.drained() {
			return false
		}
	}
	return s.fabric.Quiescent() && s.events.Len() == 0
}

// Run executes the system to completion (or MaxCycles) and returns the
// result summary. System itself implements engine.Driver: the cores are
// the injection process, and the run ends when every core retires its
// program and the memory system drains. Run closes a fabric that has a
// Close method (a sharded network's workers), so a system runs once.
func (s *System) Run() *Result {
	eo := engine.RunOutcome(engine.Config{
		Net:      s.fabric,
		Ctx:      s.cfg.Ctx,
		Deadline: s.cfg.MaxCycles,
	}, s)
	if c, ok := s.fabric.(interface{ Close() }); ok {
		c.Close()
	}
	res := s.result(eo.Completed)
	res.Canceled = eo.Canceled
	return res
}

// Cycle implements engine.Driver: timer interrupts, completed home
// accesses, one step of every core, and the timeline bucket flush.
func (s *System) Cycle(now int64) {
	cfg := s.cfg
	// Timer interrupts: every period, every still-running core traps.
	if cfg.TimerPeriod > 0 && cfg.TimerHandlerInsts > 0 && now > 0 && now%cfg.TimerPeriod == 0 {
		s.timerInterrupts++
		for _, t := range s.tileArr {
			if t.state != coreDone {
				t.kernelPending += cfg.TimerHandlerInsts
			}
		}
	}
	// Completed home accesses.
	for s.events.Len() > 0 && s.events.NextAt() <= now {
		_, ev := s.events.Pop()
		s.homes[ev.tile].dataArrived(ev.line)
	}
	for _, t := range s.tileArr {
		t.step()
	}
	// Timeline bucketing.
	if cfg.SampleInterval > 0 && now-s.bucketStart >= cfg.SampleInterval {
		s.flushBucket(now)
	}
}

// Done implements engine.Driver. The now > 0 guard keeps the first cycle
// unconditional, matching the pre-engine loop that only checked completion
// after stepping.
func (s *System) Done(now int64) bool { return now > 0 && s.done() }

// Idle implements engine.Driver. The system never declares an idle
// stretch. Not because none exists — a stalled core can be waiting on a
// home access with the fabric quiescent — but because they are rare: on
// canneal at 75 MHz every core is blocked over a quiescent fabric in under
// 2 % of cycles, so skipping them has a ceiling near 3 % (ROADMAP item 1,
// EXPERIMENTS.md "What the profile said").
func (s *System) Idle(int64) bool { return false }

// NextEvent implements engine.Driver.
func (s *System) NextEvent(int64) int64 { return engine.NoEvent }

func (s *System) flushBucket(now int64) {
	span := now - s.bucketStart
	if span <= 0 {
		return
	}
	s.timeline = append(s.timeline, TimelineSample{
		Cycle:      s.bucketStart,
		UserRate:   float64(s.bucketUser) / float64(span),
		KernelRate: float64(s.bucketKernel) / float64(span),
	})
	s.bucketUser, s.bucketKernel = 0, 0
	s.bucketStart = now
}

func (s *System) result(completed bool) *Result {
	now := s.fabric.Now()
	if s.cfg.SampleInterval > 0 {
		s.flushBucket(now)
	}
	r := &Result{
		Cycles:          now,
		Completed:       completed,
		TotalPackets:    s.totalPackets,
		KernelPackets:   s.kernelPackets,
		TotalFlits:      s.totalFlits,
		KernelFlits:     s.kernelFlits,
		UserRequests:    s.userReqs,
		KernelRequests:  s.kernelReqs,
		TimerInterrupts: s.timerInterrupts,
		BarrierEpisodes: s.barrierEpisodes,
		Timeline:        s.timeline,
		Matrix:          s.matrix,
		AppMatrix:       s.appMatrix,
	}
	var l1a, l1m, l2a, l2m [2]int64
	for i, t := range s.tileArr {
		r.UserInsts += t.userInsts
		r.KernelInsts += t.kernelInsts
		for c := 0; c < 2; c++ {
			l1a[c] += t.l1Access[c]
			l1m[c] += t.l1Miss[c]
			l2a[c] += s.homes[i].l2Access[c]
			l2m[c] += s.homes[i].l2Miss[c]
		}
	}
	for c := 0; c < 2; c++ {
		if l1a[c] > 0 {
			r.L1MissRate[c] = float64(l1m[c]) / float64(l1a[c])
		}
		if l2a[c] > 0 {
			r.L2MissRate[c] = float64(l2m[c]) / float64(l2a[c])
		}
	}
	if now > 0 {
		n := float64(s.tiles) * float64(now)
		r.NAR = float64(s.totalFlits) / n
		r.UserNAR = float64(s.totalFlits-s.kernelFlits) / n
		r.KernelNAR = float64(s.kernelFlits) / n
	}
	return r
}
