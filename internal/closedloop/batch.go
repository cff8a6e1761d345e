package closedloop

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"noceval/internal/engine"
	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/router"
	"noceval/internal/sim"
	"noceval/internal/stats"
	"noceval/internal/traffic"
)

// KernelConfig models operating-system traffic (§V). Syscall/trap traffic is
// independent of runtime and is added to every node's batch statically;
// timer-interrupt traffic is proportional to runtime and is added while a
// node is still working, once per timer period.
type KernelConfig struct {
	// StaticFraction adds ceil(StaticFraction*B) kernel transactions to
	// each node's batch before the run starts (thread creation, syscalls).
	StaticFraction float64
	// TimerPeriod is the cycle interval between timer interrupts
	// (1/Rtimer); zero disables the timer.
	TimerPeriod int64
	// TimerBatch is the number of kernel transactions each interrupt adds
	// to every still-running node.
	TimerBatch int
	// KernelNAR throttles kernel request injection; zero means "use the
	// same NAR as user traffic".
	KernelNAR float64
}

// BatchConfig describes one batch-model run.
type BatchConfig struct {
	Net     network.Config
	Pattern traffic.Pattern
	// Ctx, when non-nil, makes the run cancellable (see openloop.Config.Ctx):
	// a cancelled run returns a nil result with an error wrapping the
	// context's cause.
	Ctx context.Context

	// B is the batch size b: remote operations each node must complete.
	B int
	// M is the maximum outstanding requests per node (the MSHR limit m).
	M int

	// ReqSize and ReplySize are packet lengths in flits (default 1 and 1,
	// matching the paper's throughput definition θ = b*2/T).
	ReqSize, ReplySize int

	// NAR is the network access rate of the enhanced injection model
	// (§IV-C1): the probability per cycle that a node with pf < m actually
	// injects. Values <= 0 or >= 1 reproduce the baseline model.
	NAR float64

	// Reply models the latency before a reply is injected (§IV-C2).
	// Nil means ImmediateReply.
	Reply ReplyModel

	// Kernel, when non-nil, enables the OS-traffic model (§V).
	Kernel *KernelConfig

	// ReqClass and ReplyClass stamp the QoS traffic class on request and
	// reply packets (see router.Config.Classes) — e.g. prioritized replies
	// on a class-partitioned network. Zeros keep the classic single-class
	// behavior.
	ReqClass, ReplyClass int

	// MaxCycles aborts a run that fails to complete (default 50M).
	MaxCycles int64
	Seed      uint64

	// SampleInterval, when positive, records the injection-rate timeline
	// in buckets of this many cycles (Fig 21).
	SampleInterval int64
	// CollectMatrix, when true, accumulates the source/destination flit
	// matrix (Fig 13).
	CollectMatrix bool

	// Obs, when non-nil, attaches the observability layer: network metrics
	// and telemetry, plus a per-node outstanding-request (MSHR depth, the
	// paper's pf) time series on the observer's sampling schedule.
	Obs *obs.Observer
	// Progress, when non-nil, prints run heartbeats.
	Progress *obs.Progress

	// Inspect, when non-nil, receives the run's network after the engine
	// finishes and before RunBatch returns — the invariant harness hooks
	// here to check conservation on the final state.
	Inspect func(*network.Network)

	// OnEngine, when non-nil, receives the engine outcome (stepped vs
	// fast-forwarded cycle split) after the run finishes. The run ledger
	// hooks here; the outcome never feeds back into results.
	OnEngine func(engine.Outcome)
}

func (c *BatchConfig) fillDefaults() {
	if c.ReqSize == 0 {
		c.ReqSize = 1
	}
	if c.ReplySize == 0 {
		c.ReplySize = 1
	}
	if c.Reply == nil {
		c.Reply = ImmediateReply{}
	}
	if c.Pattern == nil {
		c.Pattern = traffic.Uniform{}
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = defaultMaxCycles
	}
}

// TimelineSample is one bucket of the injection-rate timeline.
type TimelineSample struct {
	Cycle      int64   // bucket start
	UserRate   float64 // user flits/cycle summed over all nodes
	KernelRate float64 // kernel flits/cycle summed over all nodes
}

// BatchResult summarizes one batch-model run.
type BatchResult struct {
	// Runtime is T: the cycle at which the last node finished its batch.
	Runtime int64
	// Completed is false when MaxCycles elapsed first or the run stalled.
	Completed bool
	// Stalled is true when the deadlock watchdog proved the run could never
	// finish: unfinished nodes, an empty network, and nothing scheduled —
	// transactions were silently lost (fault injection without a recovery
	// NIC) or wedged on a dead resource. StallDump carries the diagnostic.
	Stalled   bool   `json:",omitempty"`
	StallDump string `json:",omitempty"`
	// FailedTransactions counts transactions closed by NIC abandonment
	// rather than a reply (always 0 without fault injection).
	FailedTransactions int64 `json:",omitempty"`
	// Faults carries the fault/recovery counters of a faulted run, nil
	// otherwise.
	Faults *fault.Stats `json:",omitempty"`

	// NodeFinish is the per-node completion time (Fig 7).
	NodeFinish []int64

	// Throughput is the achieved throughput θ in flits/cycle/node computed
	// from the runtime over all injected flits.
	Throughput float64
	// ReqThroughput is the paper's θ = (b*2)/T definition (transactions,
	// counting request+reply, per cycle per node).
	ReqThroughput float64

	TotalPackets  int64
	KernelPackets int64
	TotalFlits    int64
	KernelFlits   int64

	AvgPacketLatency float64

	Timeline []TimelineSample
	Matrix   *stats.Heatmap
}

// replyEvent is a scheduled reply injection; batchDriver.replies keys it by
// the cycle the reply is ready.
type replyEvent struct {
	from   int // responder (request destination)
	to     int // requester
	size   int
	kernel bool
}

// nodeState tracks one terminal's progress through its batch.
type nodeState struct {
	target       int // transactions to complete (grows with timer traffic)
	kernelTarget int // how many of target are kernel transactions
	sentUser     int
	sentKernel   int
	done         int
	pf           int // requests in flight (outstanding, the paper's pf)
	finish       int64
	finished     bool
}

// batchDriver implements engine.Driver for the batch model. Each cycle it
// fires the kernel timer, injects ready replies, and lets every eligible
// node (unfinished, below the MSHR limit, with work remaining) attempt one
// request. When no node is eligible — every node is blocked on in-flight
// requests or scheduled replies — the driver is idle and the engine can
// fast-forward to the next reply ready time, timer tick, timeline bucket
// boundary, or telemetry sample.
//
// Most stepped cycles of a reply-latency run have no eligible node, so the
// driver never looks for one: ready is the set of eligible nodes, kept
// current by refresh at the only places eligibility can change, and the
// request loop and Idle read it.
type batchDriver struct {
	cfg   *BatchConfig
	net   *network.Network
	rng   *sim.RNG
	n     int
	nodes []nodeState

	// ready has bit i set iff eligible(i); readyCount is its population.
	ready      []uint64
	readyCount int

	timer *sim.Ticker
	// replies pops replies with equal ready cycles in the order
	// sim.EventHeap's sift leaves them; there is no other tie-break.
	replies  sim.EventHeap[replyEvent]
	replyRNG *sim.RNG
	res      *BatchResult

	userNAR, kernelNAR float64

	finished   int // nodes whose batch is complete
	latencySum float64
	latencyCnt int64

	bucketUser, bucketKernel int64
	bucketStart              int64

	latencyHist   *obs.Histogram
	finishedGauge *obs.Gauge
	kernelCtr     *obs.Counter
}

// eligible is the request loop's condition on one node: unfinished, below
// the MSHR limit, and with kernel or user work left to send.
func (d *batchDriver) eligible(st *nodeState) bool {
	return !st.finished && st.pf < d.cfg.M &&
		(st.kernelTarget > st.sentKernel || st.target-st.kernelTarget > st.sentUser)
}

// refresh re-evaluates one node's membership of the ready set. Every
// change to a field eligible reads is followed by a refresh of that node.
func (d *batchDriver) refresh(node int) {
	w, bit := node>>6, uint64(1)<<(uint(node)&63)
	was := d.ready[w]&bit != 0
	if d.eligible(&d.nodes[node]) == was {
		return
	}
	d.ready[w] ^= bit
	if was {
		d.readyCount--
	} else {
		d.readyCount++
	}
}

// newBatchDriver builds the network and the driver state of one run, wired
// to the network's delivery and abandonment callbacks. cfg has its defaults
// filled and has been validated.
func newBatchDriver(cfg *BatchConfig) *batchDriver {
	net := network.New(cfg.Net)
	n := net.Nodes()
	rng := sim.NewRNG(cfg.Seed ^ 0xb5297a4d3f84d5b5)
	d := &batchDriver{
		cfg:      cfg,
		net:      net,
		rng:      rng,
		n:        n,
		nodes:    make([]nodeState, n),
		ready:    make([]uint64, (n+63)/64),
		replyRNG: rng.Split(),
		res:      &BatchResult{NodeFinish: make([]int64, n)},
	}

	net.AttachObserver(cfg.Obs)
	if cfg.Obs != nil {
		d.latencyHist = cfg.Obs.Registry.Histogram("batch.packet_latency_cycles", 0, 1024, 64)
		d.finishedGauge = cfg.Obs.Registry.Gauge("batch.finished_nodes")
		d.kernelCtr = cfg.Obs.Registry.Counter("batch.kernel_packets")
	}

	staticKernel := 0
	if cfg.Kernel != nil && cfg.Kernel.StaticFraction > 0 {
		staticKernel = int(cfg.Kernel.StaticFraction*float64(cfg.B) + 0.999999)
	}
	for i := range d.nodes {
		d.nodes[i].target = cfg.B + staticKernel
		d.nodes[i].kernelTarget = staticKernel
		d.refresh(i)
	}
	if cfg.Kernel != nil && cfg.Kernel.TimerPeriod > 0 && cfg.Kernel.TimerBatch > 0 {
		d.timer = sim.NewTicker(cfg.Kernel.TimerPeriod, cfg.Kernel.TimerPeriod)
	}
	if cfg.CollectMatrix {
		d.res.Matrix = stats.NewHeatmap(n, n)
	}

	d.userNAR = cfg.NAR
	if d.userNAR <= 0 || d.userNAR > 1 {
		d.userNAR = 1
	}
	d.kernelNAR = d.userNAR
	if cfg.Kernel != nil && cfg.Kernel.KernelNAR > 0 {
		d.kernelNAR = cfg.Kernel.KernelNAR
	}

	net.OnReceive = d.onReceive
	net.OnDeadDrop = d.onDeadDrop
	return d
}

// countInjection accrues the per-class packet/flit accounting for one
// injected packet.
func (d *batchDriver) countInjection(p *router.Packet) {
	d.res.TotalPackets++
	d.res.TotalFlits += int64(p.Size)
	if p.Aux&auxKernel != 0 {
		d.res.KernelPackets++
		d.res.KernelFlits += int64(p.Size)
		d.bucketKernel += int64(p.Size)
		d.kernelCtr.Inc()
	} else {
		d.bucketUser += int64(p.Size)
	}
	if d.res.Matrix != nil {
		d.res.Matrix.Addf(p.Src, p.Dst, float64(p.Size))
	}
}

// sendRequest injects one request from node toward a pattern-drawn
// destination.
func (d *batchDriver) sendRequest(node int, kernel bool) {
	dst := d.cfg.Pattern.Dest(d.rng, node, d.n)
	p := d.net.NewPacket(node, dst, d.cfg.ReqSize, router.KindRequest)
	p.Class = d.cfg.ReqClass
	st := &d.nodes[node]
	if kernel {
		p.Aux = auxKernel
		st.sentKernel++
	} else {
		st.sentUser++
	}
	d.net.Send(p)
	d.countInjection(&p)
	st.pf++
	d.refresh(node)
}

// closeTransaction retires one of node's outstanding requests — its reply
// arrived, or the NIC gave it up — and finishes the node when that was the
// last transaction of its batch.
func (d *batchDriver) closeTransaction(node int, now int64) {
	st := &d.nodes[node]
	st.pf--
	st.done++
	if !st.finished && st.done >= st.target {
		st.finished = true
		st.finish = now
		d.finished++
	}
	d.refresh(node)
}

// onReceive is the network's delivery callback: a request schedules its
// reply after the memory-model delay, a reply closes its transaction.
func (d *batchDriver) onReceive(now int64, p *router.Packet) {
	d.latencySum += float64(p.Latency())
	d.latencyCnt++
	d.latencyHist.Observe(float64(p.Latency()))
	switch p.Kind {
	case router.KindRequest:
		d.replies.Push(now+d.cfg.Reply.Delay(d.replyRNG), replyEvent{
			from:   p.Dst,
			to:     p.Src,
			size:   d.cfg.ReplySize,
			kernel: p.Aux&auxKernel != 0,
		})
	case router.KindReply:
		d.closeTransaction(p.Dst, now)
	}
}

// onDeadDrop is the NIC's abandonment callback. A transaction whose request
// or reply the NIC abandons will never see its reply: close it as failed so
// the requester's MSHR slot frees and the batch can still complete
// (gracefully degraded).
func (d *batchDriver) onDeadDrop(now int64, p *router.Packet) {
	switch p.Kind {
	case router.KindRequest:
		d.closeTransaction(p.Src, now)
	case router.KindReply:
		d.closeTransaction(p.Dst, now)
	default:
		return
	}
	d.res.FailedTransactions++
}

// Cycle implements engine.Driver: timer interrupts, ready replies, request
// generation, and the periodic telemetry/timeline samples, in exactly the
// order of the original hand-rolled loop.
func (d *batchDriver) Cycle(now int64) {
	cfg := d.cfg
	// Timer interrupts add kernel work to unfinished nodes.
	if d.timer != nil && d.timer.Fire(now) {
		for i := range d.nodes {
			if !d.nodes[i].finished {
				d.nodes[i].target += cfg.Kernel.TimerBatch
				d.nodes[i].kernelTarget += cfg.Kernel.TimerBatch
				d.refresh(i)
			}
		}
	}
	// Inject ready replies.
	for d.replies.Len() > 0 && d.replies.NextAt() <= now {
		_, ev := d.replies.Pop()
		p := d.net.NewPacket(ev.from, ev.to, ev.size, router.KindReply)
		p.Class = d.cfg.ReplyClass
		if ev.kernel {
			p.Aux = auxKernel
		}
		d.net.Send(p)
		d.countInjection(&p)
	}
	// Generate requests: kernel work preempts user work, at most one
	// new request per node per cycle, subject to the MSHR limit and
	// the injection-model throttle. Ready nodes are visited in ascending
	// order, so RNG draws, packet ids and Send order are those of a scan
	// over all nodes. A request changes only its own node's eligibility
	// (Send never calls back into node state), so iterating a copy of each
	// word is exact.
	for w, word := range d.ready {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if st := &d.nodes[i]; st.kernelTarget > st.sentKernel {
				if d.rng.Bernoulli(d.kernelNAR) {
					d.sendRequest(i, true)
				}
			} else if d.rng.Bernoulli(d.userNAR) {
				d.sendRequest(i, false)
			}
		}
	}
	// Telemetry: per-node outstanding-request depth (the MSHR series),
	// on the same schedule as the network's router samples.
	if cfg.Obs != nil && cfg.Obs.ShouldSample(now) {
		for i := range d.nodes {
			cfg.Obs.Telemetry.AddNode(obs.NodeSample{Cycle: now, Node: i, Outstanding: d.nodes[i].pf})
		}
		d.finishedGauge.Set(float64(d.finished))
	}
	// Timeline bucketing.
	if cfg.SampleInterval > 0 && now-d.bucketStart >= cfg.SampleInterval {
		d.res.Timeline = append(d.res.Timeline, TimelineSample{
			Cycle:      d.bucketStart,
			UserRate:   float64(d.bucketUser) / float64(now-d.bucketStart),
			KernelRate: float64(d.bucketKernel) / float64(now-d.bucketStart),
		})
		d.bucketUser, d.bucketKernel = 0, 0
		d.bucketStart = now
	}
}

// Done implements engine.Driver: every node has completed its batch.
func (d *batchDriver) Done(int64) bool { return d.finished == d.n }

// Idle implements engine.Driver: no node can attempt a request this cycle,
// so Cycle draws nothing from the RNG and injects nothing until the next
// scheduled event. The request loop iterates the same set.
func (d *batchDriver) Idle(int64) bool { return d.readyCount == 0 }

// NextEvent implements engine.Driver: the earliest of the next scheduled
// reply, the next kernel timer tick, and the next timeline bucket
// boundary.
func (d *batchDriver) NextEvent(int64) int64 {
	next := engine.NoEvent
	if d.replies.Len() > 0 {
		next = d.replies.NextAt()
	}
	if d.timer != nil {
		if t := d.timer.Next(); t >= 0 && (next == engine.NoEvent || t < next) {
			next = t
		}
	}
	if d.cfg.SampleInterval > 0 {
		if b := d.bucketStart + d.cfg.SampleInterval; next == engine.NoEvent || b < next {
			next = b
		}
	}
	return next
}

// auxKernel marks kernel-class transactions in Packet.Aux.
const auxKernel = 1

// CheckBatch rejects a batch size or outstanding limit RunBatch cannot run;
// internal/core applies it to a spec before anything simulates.
func CheckBatch(b, m int) error {
	if b < 1 {
		return fmt.Errorf("closedloop: batch size B must be >= 1, got %d", b)
	}
	if m < 1 {
		return fmt.Errorf("closedloop: outstanding limit M must be >= 1, got %d", m)
	}
	return nil
}

// CheckKernel rejects an OS-traffic model RunBatch cannot run for batch
// size b: a negative (or NaN) fraction, rate, period or interrupt batch,
// or kernel work so large that converting it to a node's transaction
// target overflows — a negative target equals the node's completed count
// at once, and the run "finishes" on its first reply. The bound is int32:
// no node completes that many transactions inside any cycle limit.
// internal/core applies it to a spec before anything simulates. A nil
// model (no kernel traffic) passes.
func CheckKernel(k *KernelConfig, b int) error {
	if k == nil {
		return nil
	}
	if !(k.StaticFraction >= 0) {
		return fmt.Errorf("closedloop: kernel static fraction must be >= 0, got %g", k.StaticFraction)
	}
	if !(k.KernelNAR >= 0) {
		return fmt.Errorf("closedloop: kernel NAR must be >= 0, got %g", k.KernelNAR)
	}
	if k.TimerPeriod < 0 {
		return fmt.Errorf("closedloop: kernel timer period must be >= 0 cycles (0 = no timer), got %d", k.TimerPeriod)
	}
	if k.TimerBatch < 0 || k.TimerBatch > math.MaxInt32 {
		return fmt.Errorf("closedloop: kernel timer batch %d outside [0, %d]", k.TimerBatch, math.MaxInt32)
	}
	if static := k.StaticFraction * float64(b); static > math.MaxInt32 {
		return fmt.Errorf("closedloop: kernel static fraction %g of batch size %d is %g transactions a node, more than %d",
			k.StaticFraction, b, static, math.MaxInt32)
	}
	return nil
}

// RunBatch executes one batch-model simulation.
func RunBatch(cfg BatchConfig) (*BatchResult, error) {
	cfg.fillDefaults()
	if err := CheckBatch(cfg.B, cfg.M); err != nil {
		return nil, err
	}
	if err := CheckKernel(cfg.Kernel, cfg.B); err != nil {
		return nil, err
	}
	if err := CheckReply(cfg.Reply, cfg.MaxCycles); err != nil {
		return nil, err
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	d := newBatchDriver(&cfg)
	net, n, nodes, res := d.net, d.n, d.nodes, d.res

	eo := engine.RunOutcome(engine.Config{
		Net:      net,
		Ctx:      cfg.Ctx,
		Deadline: cfg.MaxCycles,
		Progress: cfg.Progress,
		OnStall: func(now int64) {
			res.Stalled = true
			res.StallDump = d.stallDump(now)
		},
	}, d)
	res.Completed = eo.Completed
	if cfg.OnEngine != nil {
		cfg.OnEngine(eo)
	}
	if eo.Canceled {
		net.Close()
		return nil, fmt.Errorf("closedloop: batch run canceled at cycle %d: %w", eo.End, context.Cause(cfg.Ctx))
	}
	cfg.Progress.Done(net.Now())

	if cfg.SampleInterval > 0 && net.Now() > d.bucketStart {
		res.Timeline = append(res.Timeline, TimelineSample{
			Cycle:      d.bucketStart,
			UserRate:   float64(d.bucketUser) / float64(net.Now()-d.bucketStart),
			KernelRate: float64(d.bucketKernel) / float64(net.Now()-d.bucketStart),
		})
	}

	for i := range nodes {
		res.NodeFinish[i] = nodes[i].finish
		if !nodes[i].finished {
			res.NodeFinish[i] = net.Now()
		}
		if res.NodeFinish[i] > res.Runtime {
			res.Runtime = res.NodeFinish[i]
		}
	}
	if res.Runtime > 0 {
		res.Throughput = float64(res.TotalFlits) / float64(res.Runtime) / float64(n)
		res.ReqThroughput = float64(2*cfg.B) / float64(res.Runtime)
	}
	if d.latencyCnt > 0 {
		res.AvgPacketLatency = d.latencySum / float64(d.latencyCnt)
	}
	if fs := net.FaultStats(); fs != nil {
		// Denominator is the full workload, not just completed
		// transactions: a stalled run that delivered half its batch must
		// not report fraction 1.0.
		var done int64
		for i := range nodes {
			done += int64(nodes[i].done)
		}
		if total := int64(n) * int64(cfg.B); total > 0 {
			fs.DeliveredFraction = float64(done-res.FailedTransactions) / float64(total)
		}
		res.Faults = fs
	}
	if cfg.Inspect != nil {
		cfg.Inspect(net)
	}
	net.Close()
	return res, nil
}

// stallDump renders the deadlock watchdog's diagnostic: which nodes are
// stuck (and on what), plus the network's stuck-VC report.
func (d *batchDriver) stallDump(now int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch run stalled at cycle %d: %d/%d nodes finished\n", now, d.finished, d.n)
	lines := 0
	for i := range d.nodes {
		st := &d.nodes[i]
		if st.finished {
			continue
		}
		if lines >= 32 {
			b.WriteString("... (further nodes omitted)\n")
			break
		}
		fmt.Fprintf(&b, "node %d: done %d/%d, outstanding pf %d, sent user %d kernel %d\n",
			i, st.done, st.target, st.pf, st.sentUser, st.sentKernel)
		lines++
	}
	b.WriteString(d.net.StuckVCReport())
	return b.String()
}
