// Package network assembles cycle-accurate routers into a complete on-chip
// network with one terminal per node, unbounded source queues (the open-loop
// "infinite source queue" model), packet-level send/receive hooks for
// closed-loop protocols, and conservation accounting.
//
// The network advances in whole cycles: each Step first delivers the flits
// and credits that came due on its delay lines (deliver phase), then lets
// every router that buffers flits compute one RC/VA/SA cycle (compute
// phase). Terminals inject between the two phases, so a flit injected in
// cycle c can be switched in cycle c at the earliest.
//
// Everything in flight lives on network-owned delay lines (sim.DelayLine),
// one per latency per spatial tile: ejection (tr), link (tr + link delay)
// and credit return (link delay + 1). A router's switch winners and the
// credits for the slots they free are pushed onto its tile's lines in cycle
// order, so every line is a FIFO sorted by due cycle: the deliver phase pops
// exactly what is due, and nothing is visited before it is due. A router is
// in the active set only while it buffers flits.
package network

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"noceval/internal/fault"
	"noceval/internal/obs"
	"noceval/internal/par"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// Config gathers everything needed to build a network.
type Config struct {
	Topo    *topology.Topology
	Routing routing.Algorithm
	Router  router.Config
	Seed    uint64
	// Fault, when non-nil and enabled, wires the fault injector and (with a
	// positive Timeout) the recovery NIC into the network. Nil or all-zero
	// leaves the network bit-identical to a fault-free build.
	Fault *fault.Params
	// Shards partitions the network into that many spatial tiles stepped
	// concurrently inside each cycle (clamped to the topology's row count).
	// 0 or 1 keeps the sequential cycle loop; any value is bit-identical to
	// it — sharding is purely a wall-clock optimization. See DESIGN §12.
	Shards int
	// OnSend, when non-nil, observes every packet handed to Send (a trace
	// capture records through it). NIC retransmissions re-enter below Send
	// and are not shown. It receives a copy that is valid for the call: the
	// Packet the network routes is built when the head flit injects.
	OnSend Receiver
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("network: nil topology")
	}
	if c.Routing == nil {
		return fmt.Errorf("network: nil routing algorithm")
	}
	if c.Shards < 0 {
		return fmt.Errorf("network: Shards must be >= 0, got %d", c.Shards)
	}
	if err := c.Fault.Validate(c.Topo); err != nil {
		return err
	}
	if err := c.Router.Validate(c.Topo, c.Routing); err != nil {
		return err
	}
	if b := c.footprint(); b > maxFootprint {
		return fmt.Errorf("network: %s with VCs %d, BufDepth %d, Delay %d needs %.3g GiB of router buffers and pipes, over the %d GiB limit",
			c.Topo.Name, c.Router.VCs, c.Router.BufDepth, c.Router.Delay, b/(1<<30), maxFootprint>>30)
	}
	return nil
}

// maxFootprint bounds the bytes New allocates for router buffers and
// pipes. VCs, BufDepth and Delay come from user specs, and New sizes its
// slices from them: a hostile value would be a fatal out-of-memory, which
// no recover catches. The largest configuration the repository runs
// needs a few MiB.
const maxFootprint = 1 << 30

// footprint estimates the bytes New allocates for its routers and delay
// lines. Per router: the Router block and, where routing.NextHops memoises
// the algorithm, its next-hop row and candidates and the router's hop
// entries, one per candidate per QoS class, and the private lines New gives
// it and the network replaces. Per port: two private line headers, a line
// pointer, an upstream reference, arbitration pointers and a flit counter.
// Per input VC: 80 B of allocation, credit and VC-allocator state, a
// Dims+1-entry candidate window unless the routes are memoised, and
// BufDepth flit slots. Per output port, on the tile's
// lines: Delay (+ link delay) flits in transit and link delay + 1 credits,
// each with its due cycle. Per node: the source queues. It is float64 so
// that hostile sizes cannot overflow; Router.Validate has already checked
// every factor positive.
func (c Config) footprint() float64 {
	const (
		vcState = 64 + 8 + 8 // inVC, outVC, a vaScratch slot
		// Two 48-byte private line headers, an 8-byte line pointer, a
		// 16-byte upstream reference, five 8-byte per-port words (SA
		// pointers, nomination, flit count) and two match flags.
		portState = 2*48 + 8 + 16 + 5*8 + 2
		ownLines  = 48 // the private lines' header block
		hopEntry  = 16 // four int32: the output-VC range, port and class
	)
	flit := float64(unsafe.Sizeof(router.Flit{}))
	transit := float64(unsafe.Sizeof(router.Transit{})) + 8
	credit := float64(unsafe.Sizeof(router.Credit{})) + 8
	cand := float64(unsafe.Sizeof(routing.Candidate{}))
	t, rc := c.Topo, c.Router
	perRouter := float64(unsafe.Sizeof(router.Router{})) + ownLines + float64(t.Ports())*portState +
		float64(max(rc.Classes, 1))*float64(unsafe.Sizeof(sourceQueue{}))
	perVC := vcState + float64(rc.BufDepth)*flit
	if row, cands := routing.NextHops(c.Routing, t, 0); row != nil {
		perRouter += float64(len(row)) + float64(cap(cands))*cand +
			float64(len(cands)*max(rc.Classes, 1))*hopEntry
	} else {
		perVC += float64(t.Dims+1) * cand
	}
	delay := float64(rc.Delay)
	total := float64(t.N) * (perRouter + float64(t.Ports())*float64(rc.VCs)*perVC)
	for i := 0; i < t.N; i++ {
		total += delay * transit // ejection line
		for p := 0; p < t.Radix; p++ {
			if l := t.LinkAt(i, p); l.Connected() {
				total += (delay+float64(l.Delay))*transit + float64(l.Delay+1)*credit
			}
		}
	}
	return total
}

// Receiver observes packets arriving at terminals. Arrival means the tail
// flit reached the destination's ejection port.
type Receiver func(now int64, pkt *router.Packet)

// Network is a complete simulated on-chip network.
type Network struct {
	cfg     Config
	clock   sim.Clock
	rng     *sim.RNG
	routers []*router.Router
	// classes is the QoS class count (>= 1, from Router.Classes); srcQ
	// holds one source queue per node per class, so a backed-up
	// low-priority queue never blocks high-priority injection: the queue of
	// (node, class qc) is srcQ[node*classes+qc], held by value. Single-class
	// networks use srcQ[node] exactly as the classic single queue.
	classes int
	srcQ    []sourceQueue
	// memoRoutes is set when every router memoises its routes
	// (routing.Memoises): nothing reads a packet's routing state, so
	// NewPacket and the source queues leave it zero.
	memoRoutes bool

	// OnReceive, when non-nil, is invoked for every packet that fully
	// arrives at its destination terminal.
	OnReceive Receiver
	// OnDeadDrop, when non-nil, is invoked when the recovery NIC abandons a
	// transaction after exhausting its retries — the run mode's signal to
	// account the loss. Without a NIC, losses are silent (the run mode sees
	// nothing, exactly like a real network without end-to-end protection).
	OnDeadDrop Receiver

	// faults and nic are non-nil only when cfg.Fault is enabled; every
	// fault hook on the per-cycle paths hides behind a faults nil check so
	// fault-free runs stay bit-identical and allocation-free.
	faults *fault.Injector
	nic    *fault.NIC

	// outages holds the output ports Fault.Outages names, ascending by
	// (node, port); nil unless the fault schedule has outages.
	outages []outagePort

	nextPacketID uint64

	// Activity tracking, kept per spatial tile. Each tile owns a bitset
	// over its contiguous router range with bit b set exactly when router
	// lo+b buffers flits — a router is registered when a flit arrives while
	// it is idle and deregistered by Step's compute sweep the cycle it
	// empties. activeCount mirrors the popcount.
	// srcPending is the analogous bitset over nodes with a nonempty source
	// queue. The ordering rule of every per-cycle phase is ascending id
	// within a tile, tiles in ascending order — tiles are ascending id
	// ranges, so that is ascending id over the whole network. A sequential
	// network is the single tile [0, N); sharded networks (see shard.go)
	// split per-tile so concurrently stepping tiles never share a bitset
	// word.
	tiles  []netTile
	tileOf []int32
	// gang is the resident worker crew stepping tiles concurrently; nil
	// for a sequential (Shards <= 1) network. cyclePhases is one member's
	// share of a fault-free sharded cycle, computePhase its inject+compute
	// part (the whole of a faulted one); both set by wireShards.
	gang                      *par.Gang
	cyclePhases, computePhase func(tile int)

	// Conservation accounting. Every packet handed to Send ends in
	// exactly one of: arrived, dead (died inside the network), discarded
	// (checksum-rejected at the destination), or dup (redundant incarnation
	// discarded by receiver dedup) — the invariant harness checks the sum.
	// Counters mutated only in serial phases stay global; flit injection
	// and source-queue depth are mutated by the (potentially parallel)
	// inject phase, so they live per tile (see netTile) and are summed on
	// read.
	flitsEjected     int64
	flitsDeadDropped int64 // flits discarded by fault injection
	pktsSent         int64 // packets handed to Send
	pktsArrived      int64
	pktsDead         int64 // packets that died inside the network
	pktsDiscarded    int64 // corrupt packets rejected at the destination
	pktsDup          int64 // duplicate deliveries discarded by the NIC

	// Observability state, all nil/empty until AttachObserver: the per-cycle
	// path pays one nil check when disabled.
	obs          *obs.Observer
	tracer       *obs.Tracer
	nodeInjected []int64 // cumulative terminal flit counts, per node
	nodeEjected  []int64
	// prev* hold the cumulative counter values at the previous sample so
	// each sample reports per-window deltas.
	prevXbar      []int64
	prevPort      [][]int64
	prevInjected  []int64
	prevEjected   []int64
	lastSampleAt  int64
	cFlitInjected *obs.Counter
	cFlitEjected  *obs.Counter
	cPktSent      *obs.Counter
	cPktArrived   *obs.Counter
	// Fault counters, registered only when fault injection is enabled.
	cFaultInjected    *obs.Counter
	cFaultDetected    *obs.Counter
	cFaultRetried     *obs.Counter
	cFaultDeadDropped *obs.Counter
}

// netTile is the per-shard slice of the network's mutable bookkeeping: a
// contiguous router range with its own activity bitsets, the counters the
// inject phase mutates and the delay lines its routers push onto, plus the
// outboxes the deliver phase collects ejections and cross-tile flits in
// (drained serially before the compute phase; always empty between Steps).
// Bit b of the bitsets denotes router/node lo+b.
type netTile struct {
	lo, hi        int
	active        []uint64
	activeCount   int
	srcPending    []uint64
	queuedFlits   int64 // flits waiting in this tile's source queues
	flitsInjected int64 // flits that entered this tile's injection buffers

	// The tile's delay lines. Each router pushes only onto its own tile's:
	// its ejections onto eject (latency tr), its link flits onto link
	// (tr + the link delay) and, for each slot it frees, a credit for its
	// upstream router onto credit (the link delay + 1).
	eject, link sim.DelayLine[router.Transit]
	credit      sim.DelayLine[router.Credit]

	// Deliver-phase outboxes: terminal ejections, and flits bound for
	// another tile's input buffer. due is the outage path's scratch.
	ejectOut []router.Transit
	flitOut  []router.Transit
	due      []router.Transit
}

// inFlight returns the number of flits and credits on the tile's lines.
func (t *netTile) inFlight() int { return t.eject.Len() + t.link.Len() + t.credit.Len() }

// outagePort is one output port that the fault schedule takes down. While
// down it delivers no flits and applies no credits: flits that come due
// join flits, behind which later ones queue until the port, up again,
// delivers them one per cycle in order; credits that come due join credits,
// applied all at once when the port comes up.
type outagePort struct {
	node, port int
	down       bool
	flits      sim.FIFO[router.Transit]
	credits    []router.Credit
}

// New builds a network. It panics on invalid configuration; use
// Config.Validate to check first when the configuration is user-supplied.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := cfg.Topo
	classes := cfg.Router.Classes
	if classes < 1 {
		classes = 1
	}
	n := &Network{
		cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		routers: make([]*router.Router, t.N),
		classes: classes,
		srcQ:    make([]sourceQueue, t.N*classes),

		memoRoutes: routing.Memoises(cfg.Routing, t),
	}
	parts := t.Partition(max(cfg.Shards, 1))
	n.tiles = make([]netTile, len(parts))
	n.tileOf = make([]int32, t.N)
	for ti, part := range parts {
		words := (part.Len() + 63) / 64
		n.tiles[ti] = netTile{
			lo:         part.Lo,
			hi:         part.Hi,
			active:     make([]uint64, words),
			srcPending: make([]uint64, words),
		}
		for id := part.Lo; id < part.Hi; id++ {
			n.tileOf[id] = int32(ti)
		}
	}
	for i := 0; i < t.N; i++ {
		n.routers[i] = router.New(i, t, cfg.Routing, cfg.Router)
	}
	n.wireLines()
	if len(n.tiles) > 1 {
		n.wireShards(parts)
	}
	if cfg.Fault.Enabled() {
		fp := *cfg.Fault
		seed := fp.Seed
		if seed == 0 {
			seed = cfg.Seed ^ 0x8f1bbcdc9a3f7d21
		}
		n.faults = fault.NewInjector(fp, seed)
		n.wireOutages(fp.Outages)
		if fp.Timeout > 0 {
			n.nic = fault.NewNIC(fault.NICConfig{
				Timeout:    fp.Timeout,
				MaxRetries: fp.MaxRetries,
				RetryCap:   fp.RetryCap,
				Nodes:      t.N,
				Resend: func(now int64, prev *router.Packet) router.Packet {
					p := n.NewPacket(prev.Src, prev.Dst, prev.Size, prev.Kind)
					p.Aux = prev.Aux
					p.Measured = prev.Measured
					p.Class = prev.Class
					// A retransmission continues the original transaction:
					// it keeps the original creation time so end-to-end
					// latency honestly includes the recovery delay.
					p.CreateTime = prev.CreateTime
					p.FaultTxn = prev.FaultTxn
					n.cFaultRetried.Inc()
					n.send(&p)
					return p
				},
				Abandon: func(now int64, p *router.Packet) {
					if n.OnDeadDrop != nil {
						n.OnDeadDrop(now, p)
					}
				},
			})
		}
	}
	return n
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// wireLines gives every tile its delay lines and moves each router onto its
// tile's: its output ports onto the ejection and link lines, and the credits
// it returns upstream onto the credit line, so that under sharding a tile's
// worker pushes only onto lines it owns. Every link of a topology has one
// delay (topology.newKAryNCube), so one link line and one credit line per
// tile carry every link's traffic. A line is sized for its steady state, one
// push per port per cycle for as many cycles as its latency, and grows only
// when an outage or a kill piles entries up.
func (n *Network) wireLines() {
	t, tr := n.cfg.Topo, n.cfg.Router.Delay
	d := int64(-1)
	links := make([]int, len(n.tiles)) // connected output ports per tile
	for i := 0; i < t.N; i++ {
		for p := 0; p < t.Radix; p++ {
			if l := t.LinkAt(i, p); l.Connected() {
				if d >= 0 && l.Delay != d {
					panic(fmt.Sprintf("network: %s has links of delay %d and %d", t.Name, d, l.Delay))
				}
				d = l.Delay
				links[n.tileOf[i]]++
			}
		}
	}
	for ti := range n.tiles {
		tl := &n.tiles[ti]
		tl.eject = sim.NewDelayLine[router.Transit](tr)
		tl.eject.Grow(int(tr) * (tl.hi - tl.lo))
		tl.link = sim.NewDelayLine[router.Transit](tr + d)
		tl.link.Grow(links[ti] * int(tr+d))
		// Links are reciprocal, so a tile's input ports number its output
		// ports.
		tl.credit = sim.NewDelayLine[router.Credit](d + 1)
		tl.credit.Grow(links[ti] * int(d+1))
	}
	for i := 0; i < t.N; i++ {
		tl := &n.tiles[n.tileOf[i]]
		n.routers[i].SetLine(t.LocalPort(), &tl.eject)
		for p := 0; p < t.Radix; p++ {
			if link := t.LinkAt(i, p); link.Connected() {
				n.routers[i].SetLine(p, &tl.link)
				// The downstream router returns this link's credits on
				// its own tile's credit line.
				n.routers[link.To].SetUpstream(link.ToPort, i, p, &n.tiles[n.tileOf[link.To]].credit)
			}
		}
	}
}

// markActive inserts router id into its tile's active set; it is
// idempotent. The deliver and inject phases call it when AcceptFlit reports
// that a flit arrived at an idle router. During parallel phases only the
// tile's own worker (or the serial apply sections) reaches a tile's bitset,
// so no locking is needed.
func (n *Network) markActive(id int) {
	t := &n.tiles[n.tileOf[id]]
	bit := id - t.lo
	w, b := bit>>6, uint64(1)<<(uint(bit)&63)
	if t.active[w]&b == 0 {
		t.active[w] |= b
		t.activeCount++
	}
}

// AttachObserver wires an observer into the network: aggregate counters
// register into its metrics registry, routers get the flit tracer, and
// Step starts taking per-router telemetry samples on the observer's
// schedule. A nil observer detaches everything (the default).
func (n *Network) AttachObserver(o *obs.Observer) {
	n.obs = o
	if o == nil {
		n.tracer = nil
		for _, r := range n.routers {
			r.SetTracer(nil)
		}
		return
	}
	n.tracer = o.Tracer
	for _, r := range n.routers {
		r.SetTracer(o.Tracer)
	}
	reg := o.Registry
	n.cFlitInjected = reg.Counter("net.flits_injected")
	n.cFlitEjected = reg.Counter("net.flits_ejected")
	n.cPktSent = reg.Counter("net.packets_sent")
	n.cPktArrived = reg.Counter("net.packets_arrived")
	if n.faults != nil {
		n.cFaultInjected = reg.Counter("fault.injected")
		n.cFaultDetected = reg.Counter("fault.detected")
		n.cFaultRetried = reg.Counter("fault.retried")
		n.cFaultDeadDropped = reg.Counter("fault.dead_dropped")
	}
	nodes := n.cfg.Topo.N
	n.nodeInjected = make([]int64, nodes)
	n.nodeEjected = make([]int64, nodes)
	n.prevXbar = make([]int64, nodes)
	n.prevInjected = make([]int64, nodes)
	n.prevEjected = make([]int64, nodes)
	n.prevPort = make([][]int64, nodes)
	for i := range n.prevPort {
		n.prevPort[i] = make([]int64, n.cfg.Topo.Radix)
	}
	n.lastSampleAt = n.clock.Now()
}

// Observer returns the attached observer, nil when observability is off.
func (n *Network) Observer() *obs.Observer { return n.obs }

// sample records one telemetry observation per router for the window that
// ended at cycle now.
func (n *Network) sample(now int64) {
	window := now - n.lastSampleAt
	if window <= 0 {
		window = 1
	}
	t := n.cfg.Topo
	tele := n.obs.Telemetry
	for id, r := range n.routers {
		xbar := r.FlitsRouted
		var linkFlits int64
		links := 0
		for p := 0; p < t.Radix; p++ {
			if !t.LinkAt(id, p).Connected() {
				continue
			}
			pf := r.PortFlits(p)
			linkFlits += pf - n.prevPort[id][p]
			n.prevPort[id][p] = pf
			links++
		}
		linkUtil := 0.0
		if links > 0 {
			linkUtil = float64(linkFlits) / float64(window) / float64(links)
		}
		avg, max := r.SampleVCOccupancy()
		tele.AddRouter(obs.RouterSample{
			Cycle:    now,
			Router:   id,
			XbarUtil: float64(xbar-n.prevXbar[id]) / float64(window),
			LinkUtil: linkUtil,
			BufOcc:   r.Occupancy(),
			AvgVCOcc: avg,
			MaxVCOcc: max,
			Injected: n.nodeInjected[id] - n.prevInjected[id],
			Ejected:  n.nodeEjected[id] - n.prevEjected[id],
		})
		n.prevXbar[id] = xbar
		n.prevInjected[id] = n.nodeInjected[id]
		n.prevEjected[id] = n.nodeEjected[id]
	}
	n.lastSampleAt = now
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.clock.Now() }

// RNG returns the network's private random source (used by workloads that
// want a stream tied to the network seed).
func (n *Network) RNG() *sim.RNG { return n.rng }

// Nodes returns the number of terminals.
func (n *Network) Nodes() int { return n.cfg.Topo.N }

// NewPacket returns a packet from src to dst with the given flit count and
// kind: the next packet id, its creation time, and, where routers read it,
// its routing state (including the intermediate node two-phase algorithms
// draw here; a memoised algorithm draws none). It allocates nothing; the
// caller sets any further fields and hands the value to Send.
func (n *Network) NewPacket(src, dst, size int, kind router.Kind) router.Packet {
	n.nextPacketID++
	p := router.Packet{
		ID:         n.nextPacketID,
		Src:        src,
		Dst:        dst,
		Size:       size,
		Kind:       kind,
		CreateTime: n.clock.Now(),
		InjectTime: -1,
		ArriveTime: -1,
	}
	if !n.memoRoutes {
		p.Route = routing.NewState(n.cfg.Routing.PickIntermediate(n.cfg.Topo, n.rng, src, dst))
		p.Route.ArriveAt(src) // an intermediate equal to the source is a no-op phase
	}
	return p
}

// Send queues p at its source terminal, to be injected into the router as
// buffer space allows. Send keeps a 48-byte record of p, not p: the Packet
// the network routes, and OnReceive later sees, is built from the record
// when the head flit injects, with p's ID and field values. When the
// recovery NIC is armed it starts tracking the packet here;
// retransmissions re-enter below Send so they are neither tracked nor
// shown to Config.OnSend twice.
func (n *Network) Send(p router.Packet) {
	if n.nic != nil {
		n.nic.Track(n.clock.Now(), &p)
	}
	if n.cfg.OnSend != nil {
		n.onSend(p)
	}
	n.send(&p)
}

func (n *Network) send(p *router.Packet) {
	n.pktsSent++
	n.cPktSent.Inc()
	if n.faults != nil && n.routers[p.Src].Dead() {
		// The terminal died with its router: the packet is lost before it
		// can queue. The NIC (if any) still tracks it, so the loss is
		// eventually reported through timeout and abandonment.
		n.pktsDead++
		return
	}
	if p.Size <= 0 {
		return // no flit to queue
	}
	n.srcQ[p.Src*n.classes+n.clampClass(p.Class)].push(record(p))
	t := &n.tiles[n.tileOf[p.Src]]
	bit := p.Src - t.lo
	t.srcPending[bit>>6] |= 1 << (uint(bit) & 63)
	t.queuedFlits += int64(p.Size)
}

// onSend hands Config.OnSend its own copy of a sent packet, so only a
// hooked network puts a Packet on the heap at Send.
func (n *Network) onSend(p router.Packet) { n.cfg.OnSend(n.clock.Now(), &p) }

// clampClass maps a packet class onto the configured class range: classes
// beyond the configured count share the lowest-priority queue, so a
// workload stamping classes onto a single-class network degrades to the
// classic behaviour instead of faulting.
func (n *Network) clampClass(qc int) int {
	if qc < 0 || qc >= n.classes {
		return n.classes - 1
	}
	return qc
}

// Classes returns the network's QoS class count (1 for classic networks).
func (n *Network) Classes() int { return n.classes }

// SourceQueueLen returns the number of flits waiting at a node's source
// queues (not yet inside the network), summed across classes.
func (n *Network) SourceQueueLen(node int) int {
	l := 0
	for qc := 0; qc < n.classes; qc++ {
		l += n.srcQ[node*n.classes+qc].flits
	}
	return l
}

// Step advances the network one cycle. With more than one tile the cycle
// runs on the gang (shard.go). Two cases take the sequential loop instead,
// which runs the same phases over the same lines tile by tile: an attached
// tracer (trace append order is inherently serial), and a quiescent
// network, whose near-empty cycle costs far less than waking the gang.
func (n *Network) Step() {
	if n.gang != nil && n.tracer == nil && !n.Quiescent() {
		n.stepSharded()
		return
	}
	n.stepSequential()
}

// stepSequential is the single-threaded cycle: deliver, inject, compute,
// sample, tick — the reference semantics every other path must match
// bit for bit.
func (n *Network) stepSequential() {
	now := n.clock.Now()
	if n.faults != nil {
		n.faultPreStep(now)
	}
	n.deliver(now)
	n.inject(now)
	n.stepActive(now)
	if n.obs != nil && n.obs.ShouldSample(now) {
		n.sample(now)
	}
	n.clock.Tick()
}

// stepActive runs the compute phase over the active set only, in ascending
// router-id order, and deregisters routers that emptied. Nothing joins the
// set during the sweep: a router's switch winners and credits go onto delay
// lines, and only the deliver and inject phases land flits in buffers.
func (n *Network) stepActive(now int64) {
	for ti := range n.tiles {
		n.stepTile(now, ti)
	}
}

// stepTile is stepActive restricted to one tile. On the sharded path each
// gang member runs its own tile; tiles share no mutable state here: a
// router pushes only onto its own tile's lines.
func (n *Network) stepTile(now int64, ti int) {
	t := &n.tiles[ti]
	for w := range t.active {
		word := t.active[w]
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &= word - 1
			r := n.routers[t.lo+w<<6+i]
			r.Step(now)
			if r.Idle() {
				t.active[w] &^= 1 << uint(i)
				t.activeCount--
			}
		}
	}
}

// deliver is the deliver phase on one goroutine: every tile's lines, then
// the ejections and cross-tile flits they collected.
func (n *Network) deliver(now int64) {
	for ti := range n.tiles {
		n.deliverTile(now, ti)
	}
	n.applyDeliveries(now)
}

// deliverTile pops everything due at cycle now on tile ti's lines. Credits
// are applied in place. Ejections go to the tile's outbox, for
// applyDeliveries to hand to the terminals in ascending router order. Link
// flits land in their downstream input buffer, or in the tile's flit outbox
// when that router belongs to another tile. The sequential, sharded and
// faulted cycles all deliver through here; on the sharded path tiles run it
// concurrently, which is safe because a due credit is the only write into
// another tile's router (its own output VC's counter, which nothing else
// touches in this phase).
//
// Order: every line's due entries were pushed in one compute sweep, in
// ascending (router, port) order, so each line pops in that order. Only the
// fault layer's draws observe
// the order among link deliveries; ejections (OnReceive callbacks, their
// RNG draws and sends) are observable in their own order, which
// applyDeliveries keeps ascending. A packet's tail cannot eject while
// another of its flits crosses a link, so the two kinds commute.
func (n *Network) deliverTile(now int64, ti int) {
	t := &n.tiles[ti]
	for c, ok := t.credit.PopReady(now); ok; c, ok = t.credit.PopReady(now) {
		if n.outages != nil && n.holdCredit(c) {
			continue
		}
		n.routers[c.Node].Credit(int(c.Out))
	}
	for e, ok := t.eject.PopReady(now); ok; e, ok = t.eject.PopReady(now) {
		t.ejectOut = append(t.ejectOut, e)
	}
	if n.outages != nil {
		n.deliverAroundOutages(now, ti)
		return
	}
	for e, ok := t.link.PopReady(now); ok; e, ok = t.link.PopReady(now) {
		n.land(now, ti, e)
	}
}

// land delivers link flit e into its downstream router's input buffer, after
// the fault layer's verdict; a downstream router in another tile gets it
// through t's flit outbox.
func (n *Network) land(now int64, ti int, e router.Transit) {
	link := n.cfg.Topo.LinkAt(int(e.Node), int(e.Port))
	if n.faults != nil && n.faultOnLinkDelivery(now, e, link) {
		return
	}
	if n.tileOf[link.To] != int32(ti) {
		t := &n.tiles[ti]
		t.flitOut = append(t.flitOut, e)
		return
	}
	if n.routers[link.To].AcceptFlit(link.ToPort, int(e.F.VC), e.F) {
		n.markActive(link.To)
	}
}

// applyDeliveries empties every tile's deliver-phase outboxes on one
// goroutine. Ejections go first, in tile order: tiles are ascending id
// ranges, each outbox was filled in ascending id order and a router ejects
// at most one flit a cycle, so OnReceive callbacks (and any RNG draws they
// make through NewPacket) fire in ascending router order at every shard
// count. Cross-tile flits then land; at most one flit arrives per (router,
// input port) per cycle, so they touch disjoint buffer slots.
func (n *Network) applyDeliveries(now int64) {
	for ti := range n.tiles {
		t := &n.tiles[ti]
		for _, e := range t.ejectOut {
			n.ejectFlit(now, int(e.Node), e.F)
		}
		// Cleared, not just truncated: a stale packet pointer would keep
		// the packet's source-queue block alive.
		clear(t.ejectOut)
		t.ejectOut = t.ejectOut[:0]
	}
	for ti := range n.tiles {
		t := &n.tiles[ti]
		for _, e := range t.flitOut {
			link := n.cfg.Topo.LinkAt(int(e.Node), int(e.Port))
			if n.routers[link.To].AcceptFlit(link.ToPort, int(e.F.VC), e.F) {
				n.markActive(link.To)
			}
		}
		clear(t.flitOut)
		t.flitOut = t.flitOut[:0]
	}
}

// ejectFlit performs the terminal-arrival bookkeeping for one flit leaving
// router id's local port. It mutates only global (serial-phase) state, so
// it runs only in applyDeliveries.
func (n *Network) ejectFlit(now int64, id int, f router.Flit) {
	n.flitsEjected++
	if n.obs != nil {
		n.nodeEjected[id]++
		n.cFlitEjected.Inc()
	}
	if f.Tail() {
		if n.faults != nil && !n.acceptAtDest(now, f.P) {
			return
		}
		f.P.ArriveTime = now
		n.pktsArrived++
		n.cPktArrived.Inc()
		if n.tracer != nil {
			n.tracer.Record(now, f.P.ID, id, obs.PhaseEject)
		}
		if n.OnReceive != nil {
			n.OnReceive(now, f.P)
		}
	}
}

// inject moves flits from source queues into injection buffers while space
// remains, visiting only nodes with queued flits, in ascending id order.
func (n *Network) inject(now int64) {
	for ti := range n.tiles {
		n.injectTile(now, ti)
	}
}

// injectTile runs the inject phase over one tile's pending nodes. On the
// sharded path each gang member injects its own tile: a node's router and
// source queue belong to exactly one tile, and the per-node observability
// counters touch disjoint slice elements.
func (n *Network) injectTile(now int64, ti int) {
	t := &n.tiles[ti]
	for w := range t.srcPending {
		word := t.srcPending[w]
		for word != 0 {
			node := t.lo + w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			n.injectNode(now, t, node)
		}
	}
}

// injectNode drains node's source queues into its injection buffers while
// space remains, visiting classes in priority order (class 0 first), and
// clears the node's pending bit once every queue empties. Each class
// injects through its own VC partition, so the drains are independent: a
// full low-priority injection buffer never stalls high-priority flits.
// t must be node's tile.
func (n *Network) injectNode(now int64, t *netTile, node int) {
	r := n.routers[node]
	pending := 0
	for qc := 0; qc < n.classes; qc++ {
		q := &n.srcQ[node*n.classes+qc]
		for q.flits > 0 && r.CanAcceptInjectionClass(qc) {
			f := q.pop(node, now, !n.memoRoutes)
			if f.Head() && n.tracer != nil {
				n.tracer.Record(now, f.P.ID, node, obs.PhaseInject)
			}
			if r.AcceptFlit(n.cfg.Topo.LocalPort(), r.InjectionVCClass(qc), f) {
				n.markActive(node)
			}
			t.flitsInjected++
			t.queuedFlits--
			if n.obs != nil {
				n.nodeInjected[node]++
				n.cFlitInjected.Inc()
			}
		}
		pending += q.flits
	}
	if pending == 0 {
		bit := node - t.lo
		t.srcPending[bit>>6] &^= 1 << (uint(bit) & 63)
	}
}

// Quiescent reports whether nothing remains anywhere: source queues, input
// buffers, delay lines (flits and credits) and outage holds are all empty.
// It is a check of counters and line lengths per tile: the active set is
// exact between Steps (every Step's compute sweep deregisters routers that
// emptied that cycle), and the outboxes drain within each Step, so
// quiescence of the tiles is quiescence of the network regardless of shard
// count.
func (n *Network) Quiescent() bool {
	for i := range n.tiles {
		if t := &n.tiles[i]; t.queuedFlits != 0 || t.activeCount != 0 || t.inFlight() != 0 {
			return false
		}
	}
	for i := range n.outages {
		if o := &n.outages[i]; o.flits.Len() != 0 || len(o.credits) != 0 {
			return false
		}
	}
	return true
}

// ActiveCount returns the number of routers currently in the active set —
// an instantaneous load signal for telemetry and for sizing the benefit of
// activity-tracked stepping. Between Steps it is exactly the number of
// routers that buffer flits.
func (n *Network) ActiveCount() int {
	c := 0
	for i := range n.tiles {
		c += n.tiles[i].activeCount
	}
	return c
}

// SkipTo advances the clock to the given cycle without simulating the
// intervening cycles. The network must be quiescent, and callers (the
// engine's fast-forward) must not skip past an observer sampling point —
// the engine wakes at NextObsSampleAt so sampled telemetry records the
// same cycles either way.
func (n *Network) SkipTo(cycle int64) {
	if !n.Quiescent() {
		panic("network: SkipTo on a non-quiescent network")
	}
	n.clock.AdvanceTo(cycle)
}

// NextObsSampleAt returns the next telemetry sampling cycle, or -1 when
// no observer is attached or sampling is off.
func (n *Network) NextObsSampleAt() int64 { return n.obs.NextSampleAt() }

// Stats returns the network's cumulative conservation counters.
func (n *Network) Stats() (pktsSent, pktsArrived, flitsInjected, flitsEjected int64) {
	return n.pktsSent, n.pktsArrived, n.flitsInjectedTotal(), n.flitsEjected
}

// flitsInjectedTotal sums the per-tile injection counters.
func (n *Network) flitsInjectedTotal() int64 {
	var s int64
	for i := range n.tiles {
		s += n.tiles[i].flitsInjected
	}
	return s
}

// CheckConservation returns an error when flit/packet accounting is
// inconsistent with the amount of traffic still in flight; tests call it
// after draining to prove nothing was lost or duplicated. Fault injection
// extends both equations: every injected flit is ejected, dead-dropped, or
// still inside, and every sent packet ends arrived, dead, discarded, or
// deduplicated.
func (n *Network) CheckConservation() error {
	inside := int64(0)
	for _, r := range n.routers {
		inside += int64(r.Occupancy())
	}
	n.eachInFlight(func(router.Transit) { inside++ }, nil)
	injected := n.flitsInjectedTotal()
	if injected-n.flitsEjected-n.flitsDeadDropped != inside {
		return fmt.Errorf("network: flit conservation violated: injected %d, ejected %d, dead-dropped %d, inside %d",
			injected, n.flitsEjected, n.flitsDeadDropped, inside)
	}
	if n.Quiescent() {
		if got := n.pktsArrived + n.pktsDead + n.pktsDiscarded + n.pktsDup; n.pktsSent != got {
			return fmt.Errorf("network: packet conservation violated at quiescence: sent %d != arrived %d + dead %d + discarded %d + dup %d",
				n.pktsSent, n.pktsArrived, n.pktsDead, n.pktsDiscarded, n.pktsDup)
		}
	}
	return nil
}

// ChannelLoad describes the traffic carried by one network channel.
type ChannelLoad struct {
	From, Port, To int
	Flits          int64
	// Utilization is flits divided by elapsed cycles: the fraction of the
	// channel's bandwidth in use.
	Utilization float64
}

// ChannelLoads returns the per-channel flit counts and utilizations since
// construction, most-loaded first. It identifies the saturated channel
// that bounds throughput (the paper's footnote: "the saturation throughput
// is determined when one channel in the network is saturated").
func (n *Network) ChannelLoads() []ChannelLoad {
	t := n.cfg.Topo
	cycles := n.clock.Now()
	var out []ChannelLoad
	for id, r := range n.routers {
		for p := 0; p < t.Radix; p++ {
			link := t.LinkAt(id, p)
			if !link.Connected() {
				continue
			}
			cl := ChannelLoad{From: id, Port: p, To: link.To, Flits: r.PortFlits(p)}
			if cycles > 0 {
				cl.Utilization = float64(cl.Flits) / float64(cycles)
			}
			out = append(out, cl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flits > out[j].Flits })
	return out
}

// --- Fault injection ------------------------------------------------------

// faultPreStep applies due outage edges and router kills, then fires the
// NIC's due timeouts, all before the deliver phase so a retransmission
// issued this cycle can inject this cycle like any other send. Called only
// when fault injection is enabled.
func (n *Network) faultPreStep(now int64) {
	if n.faults.ScheduleDue(now) {
		n.applyFaultSchedule(now)
	}
	if n.nic != nil {
		n.nic.Tick(now)
	}
}

// applyFaultSchedule brings the outage and kill state in line with cycle
// now. The schedule is evaluated from time predicates rather than stepped,
// so it stays exact when the engine fast-forwards the clock across
// boundaries: transitions on an idle network have no observable effect, and
// the state seen at the next real cycle is identical either way.
//
// A port is down while any outage entry naming it covers now, so one port
// can have several windows. A port that ends the evaluation up applies the
// credits it held.
func (n *Network) applyFaultSchedule(now int64) {
	p := n.faults.Params()
	for i := range n.outages {
		n.outages[i].down = false
	}
	for _, o := range p.Outages {
		if fault.OutageActive(o, now) {
			n.outage(int32(o.Node), int32(o.Port)).down = true
		}
	}
	for i := range n.outages {
		if o := &n.outages[i]; !o.down && len(o.credits) > 0 {
			for _, c := range o.credits {
				n.routers[c.Node].Credit(int(c.Out))
			}
			o.credits = o.credits[:0]
		}
	}
	for _, k := range p.Kills {
		if now >= k.At && !n.routers[k.Node].Dead() {
			n.killRouter(now, k.Node)
		}
	}
	n.faults.AdvanceSchedule(now)
}

// wireOutages sets up the hold state of every output port an outage names.
func (n *Network) wireOutages(outages []fault.Outage) {
	for _, o := range outages {
		if n.outage(int32(o.Node), int32(o.Port)) == nil {
			n.outages = append(n.outages, outagePort{node: o.Node, port: o.Port})
		}
	}
	slices.SortFunc(n.outages, func(a, b outagePort) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.port, b.port))
	})
}

// outage returns the hold state of router node's output port, or nil when
// no outage names the port. A fault schedule names a handful of ports.
func (n *Network) outage(node, port int32) *outagePort {
	for i := range n.outages {
		if o := &n.outages[i]; o.node == int(node) && o.port == int(port) {
			return o
		}
	}
	return nil
}

// holdCredit keeps a due credit whose output port is down until the port
// comes up, reporting whether it did.
func (n *Network) holdCredit(c router.Credit) bool {
	o := n.outage(c.Node, c.Out/int32(n.cfg.Router.VCs))
	if o == nil || !o.down {
		return false
	}
	o.credits = append(o.credits, c)
	return true
}

// deliverAroundOutages is deliverTile's link phase on a network with
// outages. A due flit whose port is down, or still holds earlier flits,
// joins the port's hold; each port that is up releases the oldest flit it
// holds. A port thus delivers at most one flit a cycle, in the order its
// flits came due, as its own line would. The cycle's deliveries then land
// in ascending (router, port) order, the order the fault draws take.
func (n *Network) deliverAroundOutages(now int64, ti int) {
	t := &n.tiles[ti]
	due := t.due[:0]
	for e, ok := t.link.PopReady(now); ok; e, ok = t.link.PopReady(now) {
		if o := n.outage(e.Node, e.Port); o != nil && (o.down || o.flits.Len() > 0) {
			o.flits.Push(e)
			continue
		}
		due = append(due, e)
	}
	for i := range n.outages {
		o := &n.outages[i]
		if o.down || o.flits.Len() == 0 || n.tileOf[o.node] != int32(ti) {
			continue
		}
		e, _ := o.flits.Pop()
		due = append(due, e)
	}
	slices.SortFunc(due, func(a, b router.Transit) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Port, b.Port))
	})
	for _, e := range due {
		n.land(now, ti, e)
	}
	clear(due)
	t.due = due[:0]
}

// killRouter hard-fails one router: its flits, buffered, in transit or held
// by an outage, are purged (counted as dead-dropped, their packets marked
// dead), credits on their way to it are dropped, the routers it fed stop
// returning credits to it, and its terminal's source queue is emptied —
// packets that never injected die without flit accounting.
func (n *Network) killRouter(now int64, node int) {
	r := n.routers[node]
	dead := func(f router.Flit) {
		n.flitsDeadDropped++
		n.cFaultDeadDropped.Inc()
		n.notePacketDead(f.P)
	}
	r.Kill(now, dead)
	id := int32(node)
	for ti := range n.tiles {
		tl := &n.tiles[ti]
		purge := func(e router.Transit) bool {
			if e.Node == id {
				dead(e.F)
			}
			return e.Node == id
		}
		tl.eject.Purge(purge)
		tl.link.Purge(purge)
		tl.credit.Purge(func(c router.Credit) bool { return c.Node == id })
	}
	for i := range n.outages {
		if o := &n.outages[i]; o.node == node {
			for e, ok := o.flits.Pop(); ok; e, ok = o.flits.Pop() {
				dead(e.F)
			}
			o.credits = o.credits[:0]
		}
	}
	topo := n.cfg.Topo
	for p := 0; p < topo.Radix; p++ {
		if link := topo.LinkAt(node, p); link.Connected() {
			n.routers[link.To].SetUpstream(link.ToPort, node, p, nil)
		}
	}
	t := &n.tiles[n.tileOf[node]]
	for qc := 0; qc < n.classes; qc++ {
		q := &n.srcQ[node*n.classes+qc]
		t.queuedFlits -= int64(q.flits)
		cur, queued := q.purge()
		if cur != nil {
			n.notePacketDead(cur)
		}
		n.pktsDead += int64(queued) // never injected, never built
	}
	bit := node - t.lo
	t.srcPending[bit>>6] &^= 1 << (uint(bit) & 63)
}

// notePacketDead marks a packet lost inside the network, counting it once
// even when several of its flits are discarded separately.
func (n *Network) notePacketDead(p *router.Packet) {
	if p.FaultDead {
		return
	}
	p.FaultDead = true
	n.pktsDead++
}

// faultOnLinkDelivery intercepts one flit emerging from router id's output
// port p toward link.To. It reports true when the flit was consumed by a
// fault (discarded); false lets normal delivery proceed. Discarded flits
// bounce their credit straight back to the sender — the checksum logic at
// the link receiver rejects the flit without buffering it, so the slot it
// would have used is immediately free.
func (n *Network) faultOnLinkDelivery(now int64, e router.Transit, link topology.Link) bool {
	f := e.F
	if f.P.FaultDead {
		// Trailing flit of a packet that already died: the wormhole drains
		// here, keeping downstream state consistent.
		n.discardFlit(now, e, link)
		return true
	}
	if n.routers[link.To].Dead() {
		n.notePacketDead(f.P)
		n.discardFlit(now, e, link)
		return true
	}
	if f.Head() && n.faults.DrawDrop() {
		n.cFaultInjected.Inc()
		n.notePacketDead(f.P)
		n.discardFlit(now, e, link)
		return true
	}
	if n.faults.DrawCorrupt() {
		n.cFaultInjected.Inc()
		f.P.FaultCorrupt = true
	}
	return false
}

// discardFlit accounts one fault-discarded flit and bounces its credit to
// the sending router, on the line the link's credits return on.
func (n *Network) discardFlit(now int64, e router.Transit, link topology.Link) {
	n.flitsDeadDropped++
	n.cFaultDeadDropped.Inc()
	n.tiles[n.tileOf[link.To]].credit.Push(now, router.Credit{Node: e.Node, Out: e.Port*int32(n.cfg.Router.VCs) + e.F.VC})
}

// eachInFlight visits every flit (flit) and credit (credit) in flight: on
// the delay lines and held by outages. Either may be nil. It walks every
// line, so it is for checks and reports, not the per-cycle path.
func (n *Network) eachInFlight(flit func(router.Transit), credit func(router.Credit)) {
	for ti := range n.tiles {
		t := &n.tiles[ti]
		if flit != nil {
			t.eject.Each(flit)
			t.link.Each(flit)
		}
		if credit != nil {
			t.credit.Each(credit)
		}
	}
	for i := range n.outages {
		o := &n.outages[i]
		for j := 0; flit != nil && j < o.flits.Len(); j++ {
			flit(o.flits.At(j))
		}
		for j := 0; credit != nil && j < len(o.credits); j++ {
			credit(o.credits[j])
		}
	}
}

// InFlightByVC counts what is in flight per output VC: flits[i] the flits
// that left output VC i, credits[i] the credits on their way back to it,
// where i = (node*Ports + port)*VCs + vc. The fault invariant harness
// balances them against buffers and credit counters.
func (n *Network) InFlightByVC() (flits, credits []int) {
	ports, vcs := n.cfg.Topo.Ports(), n.cfg.Router.VCs
	flits = make([]int, n.cfg.Topo.N*ports*vcs)
	credits = make([]int, len(flits))
	n.eachInFlight(func(e router.Transit) {
		flits[(int(e.Node)*ports+int(e.Port))*vcs+int(e.F.VC)]++
	}, func(c router.Credit) {
		credits[int(c.Node)*ports*vcs+int(c.Out)]++
	})
	return flits, credits
}

// acceptAtDest applies destination-side fault handling to a fully arrived
// packet: checksum rejection of corrupt payloads and NIC deduplication of
// redundant retransmissions. It reports true when the packet is accepted as
// a genuine arrival.
func (n *Network) acceptAtDest(now int64, p *router.Packet) bool {
	if p.FaultDead {
		return false // already accounted when it died
	}
	if p.FaultCorrupt {
		// The per-flit checksums fail: the destination discards the packet.
		// Recovery, if any, is by source timeout — there is no NACK.
		n.pktsDiscarded++
		n.cFaultDetected.Inc()
		return false
	}
	if n.nic != nil && !n.nic.AckOrDup(now, p) {
		n.pktsDup++
		return false
	}
	return true
}

// NextInternalEventAt returns the next cycle at which the network itself
// has scheduled work even while empty — a pending NIC timeout — or -1. The
// engine folds it into its fast-forward wake-up and its stall detection.
func (n *Network) NextInternalEventAt() int64 {
	if n.nic == nil {
		return -1
	}
	return n.nic.NextDeadline()
}

// FaultStats assembles the run's fault and recovery counters, or nil when
// fault injection is disabled. DeliveredFraction is left for the run mode
// to fill.
func (n *Network) FaultStats() *fault.Stats {
	if n.faults == nil {
		return nil
	}
	s := &fault.Stats{
		Detected:          n.pktsDiscarded,
		DeadFlits:         n.flitsDeadDropped,
		DeadPackets:       n.pktsDead,
		Duplicates:        n.pktsDup,
		DeliveredFraction: 1,
	}
	s.CorruptInjected, s.DropInjected = n.faults.Injected()
	if n.nic != nil {
		s.Tracked, s.Acked, s.Retried, s.Abandoned, _ = n.nic.Counters()
		s.Outstanding = n.nic.Outstanding()
	}
	return s
}

// NIC exposes the recovery NIC (nil when disabled) for the invariant
// harness and its mutation test.
func (n *Network) NIC() *fault.NIC { return n.nic }

// Router returns router id, for invariant checking and tests.
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// StuckVCReport renders a human-readable dump of every router still holding
// flits, credits, or VC grants — the deadlock watchdog attaches it to
// stall failures so wedged runs are diagnosable from the report alone.
func (n *Network) StuckVCReport() string {
	var b strings.Builder
	const maxLines = 64
	lines := 0
	inFlight, pending := make([]int, len(n.routers)), make([]int, len(n.routers))
	n.eachInFlight(func(e router.Transit) { inFlight[e.Node]++ }, func(c router.Credit) { pending[c.Node]++ })
	for id, r := range n.routers {
		stuck := r.StuckVCs()
		// Dead routers are always listed: after a kill purge they hold
		// nothing, but they are usually why everyone else is stuck.
		if len(stuck) == 0 && inFlight[id] == 0 && pending[id] == 0 && !r.Dead() {
			continue
		}
		if lines >= maxLines {
			fmt.Fprintf(&b, "... (further routers omitted)\n")
			break
		}
		state := ""
		if r.Dead() {
			state = " DEAD"
		}
		fmt.Fprintf(&b, "router %d%s: occ %d inflight %d pendingCredits %d\n",
			id, state, r.Occupancy(), inFlight[id], pending[id])
		lines++
		for _, s := range stuck {
			if lines >= maxLines {
				break
			}
			fmt.Fprintf(&b, "  in(port %d, vc %d): %d flits, pkt %d", s.Port, s.VC, s.Buffered, s.PacketID)
			if s.Granted {
				fmt.Fprintf(&b, " -> granted out(port %d, vc %d) credits %d", s.OutPort, s.OutVC, s.OutCredits)
			}
			b.WriteString("\n")
			lines++
		}
	}
	if b.Len() == 0 {
		return "no stuck VCs: network is empty\n"
	}
	return b.String()
}
