package router

import (
	"fmt"
	"math/bits"

	"noceval/internal/obs"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// ArbPolicy selects how conflicting requests are ordered in the VC and
// switch allocators (Table I: round robin, age-based).
type ArbPolicy int

// Arbitration policies.
const (
	RoundRobin ArbPolicy = iota
	AgeBased
)

// String returns the policy's short name.
func (p ArbPolicy) String() string {
	if p == AgeBased {
		return "age"
	}
	return "rr"
}

// ClassArbPolicy selects how QoS traffic classes compete in the VC and
// switch allocators when Config.Classes > 1.
type ClassArbPolicy int

// Class arbitration policies.
const (
	// StrictPriority serves class 0 requests before class 1, and so on;
	// within a class the configured ArbPolicy breaks ties. This is the
	// QoS mode: high-priority traffic preempts allocator bandwidth.
	StrictPriority ClassArbPolicy = iota
	// ClassRoundRobin keeps the classic class-blind allocators: classes
	// still get disjoint VC partitions, but compete on equal terms.
	ClassRoundRobin
)

// String returns the policy's short name.
func (p ClassArbPolicy) String() string {
	if p == ClassRoundRobin {
		return "classrr"
	}
	return "strict"
}

// maxClasses bounds Config.Classes: a VC's QoS class is stored in an int8
// (inVC.qos, vcQoS, vaReq.qc), part of inVC's 64-byte layout.
const maxClasses = 127

// ejectionCredits is the effectively infinite credit count of ejection
// output VCs: terminals are ideal sinks, so ejection is limited only by
// the one-flit-per-cycle switch bandwidth.
const ejectionCredits = 1 << 30

// Config carries the router microarchitecture parameters of Table I.
type Config struct {
	VCs      int       // virtual channels per port
	BufDepth int       // flit buffer depth per VC (q)
	Delay    int64     // router pipeline latency in cycles (tr)
	Arb      ArbPolicy // allocator arbitration policy
	// Classes is the number of QoS traffic classes the VC space is
	// partitioned across. 0 or 1 selects the classic single-class router:
	// every code path is then exactly the pre-QoS implementation. With
	// C > 1, class c owns the VC slice [c*VCs/C, (c+1)*VCs/C) on every
	// port, and the routing algorithm's deadlock classes subdivide each
	// slice the same way they used to subdivide the whole VC space.
	Classes int
	// ClassArb selects strict-priority (default) or class-blind
	// round-robin arbitration between classes; ignored when Classes <= 1.
	ClassArb ClassArbPolicy
}

// Validate reports configuration errors, including too few VCs for the
// routing algorithm's class requirements.
func (c Config) Validate(t *topology.Topology, alg routing.Algorithm) error {
	if c.VCs < 1 {
		return fmt.Errorf("router: VCs must be >= 1, got %d", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("router: BufDepth must be >= 1, got %d", c.BufDepth)
	}
	if c.Delay < 1 {
		return fmt.Errorf("router: Delay must be >= 1, got %d", c.Delay)
	}
	if need := alg.NumClasses(t); c.VCs < need {
		return fmt.Errorf("router: algorithm %s needs %d VC classes on %s but only %d VCs configured",
			alg.Name(), need, t.Name, c.VCs)
	}
	if c.Classes < 0 || c.Classes > maxClasses {
		return fmt.Errorf("router: Classes must be in [0, %d], got %d", maxClasses, c.Classes)
	}
	if c.Classes > 1 {
		// Every QoS class's VC slice must still fit the routing
		// algorithm's deadlock classes, or packets of that class could
		// find no legal output VC and wedge.
		need := alg.NumClasses(t)
		for qc := 0; qc < c.Classes; qc++ {
			lo := qc * c.VCs / c.Classes
			hi := (qc + 1) * c.VCs / c.Classes
			if w := hi - lo; w < need {
				return fmt.Errorf("router: QoS class %d gets %d of %d VCs, but algorithm %s needs %d per class on %s (short %d)",
					qc, w, c.VCs, alg.Name(), need, t.Name, need-w)
			}
		}
	}
	return nil
}

// inVC is one input virtual channel: a bounded flit ring over the VC's
// BufDepth-slot window of the router's slab, plus the allocation state of
// the packet currently at its front. port and qos are fixed at construction.
type inVC struct {
	base, head, n int32 // ring window slab[base:base+BufDepth], cursor, fill
	port          int32 // input port this VC belongs to
	outPort       int32
	outVC         int32
	outClass      int32 // routing class of the granted output VC
	out           int32 // flat index outPort*VCs+outVC into Router.out
	// hop is the routed front packet's entry in Router.hopEnts, on a router
	// that memoises its routes.
	hop     int32
	qos     int8 // QoS class of the VC's partition (see vcQoS)
	routed  bool
	granted bool
	// cands is the front packet's routing candidates on a router that asks
	// the algorithm per head flit, in the VC's Dims+1-entry window of the
	// router's candidate slab (the most any built-in algorithm returns);
	// only a larger answer reallocates.
	cands []routing.Candidate
}

// reset clears the front packet's allocation after its tail departs.
func (v *inVC) reset() {
	v.routed, v.granted = false, false
	v.cands = v.cands[:0]
}

// outVC is the book-keeping for one downstream virtual channel: ownership
// (set at VC allocation, cleared when the owner's tail flit departs) and
// the credit count mirroring free downstream buffer slots.
type outVC struct {
	credits int32
	owned   bool
}

// vcSpan is a half-open VC index range [lo, hi).
type vcSpan struct{ lo, hi int32 }

// hopEntry is one memoised route out of a router for packets of one QoS
// class: the output port and routing class of the algorithm's candidate, and
// the output VCs [lo, hi) it may be granted, as flat indices port*VCs+v.
type hopEntry struct {
	lo, hi      int32
	port, class int32
}

// Transit is a flit in flight on a delay line: F left output port Port of
// router Node, and is delivered (ejected, or landed in the downstream input
// buffer) when the line's latency has passed.
type Transit struct {
	Node, Port int32
	F          Flit
}

// Credit is a credit in flight on a delay line: when it is due, output VC
// Out (port*VCs+vc) of router Node regains the buffer slot a downstream
// router freed.
type Credit struct {
	Node, Out int32
}

// upstreamRef is where the credit for a slot freed in one of our input
// buffers goes: onto line, for output VC base out (port*VCs) of router node.
// line is nil for the injection port (the terminal is co-located), for an
// unconnected port, and once the upstream router is killed.
type upstreamRef struct {
	line      *sim.DelayLine[Credit]
	node, out int32
}

// ownLines are a router's private delay lines, one per port: flits[p]
// carries what output port p forwards and credits[p] the credits returning
// to it. A router outside a network runs on them;
// network.New moves every router onto the network's shared lines and drops
// these.
type ownLines struct {
	flits   []sim.DelayLine[Transit]
	credits []sim.DelayLine[Credit]
}

// Router is one cycle-accurate virtual-channel router.
type Router struct {
	ID    int
	topo  *topology.Topology
	alg   routing.Algorithm
	cfg   Config
	ports int
	vcs   int // cfg.VCs
	local int // topo.LocalPort()
	// hops and hopEnts memoise the routing algorithm at this router when
	// routing.NextHops can: for destination dst and QoS class qc,
	// hopEnts[hops[dst]*qos+qc] is the one candidate alg.Candidates returns,
	// with the output VCs it may be granted. Nil otherwise, and routeVC then
	// asks the algorithm per head flit.
	hops    []uint8
	hopEnts []hopEntry
	// numClasses caches alg.NumClasses(topo), the routing VC class count.
	numClasses int
	// spans is the (QoS class, routing class) -> VC range table, built once
	// in New from the classRange formula: entry qc*spanStride+class+1, with
	// routing.AnyClass (-1) in column 0. VC allocation looks a candidate's
	// range up here instead of dividing per candidate.
	spans      []vcSpan
	spanStride int
	// qos is the number of QoS traffic classes (>= 1); strict is true
	// when qos > 1 under StrictPriority, enabling the priority branches
	// in the allocators. Single-class routers keep qos == 1 and strict
	// false, so every hot path is the classic implementation.
	qos    int
	strict bool
	// vcQoS maps a VC index to its QoS class. An input VC only ever holds
	// packets of its own class — injection enters the class's partition,
	// VC allocation grants only within the packet's partition, and a
	// delivered flit lands at whatever VC its upstream allocator chose
	// inside that partition — so allocators can read a front packet's
	// class from this table without peeking at the buffer.
	vcQoS []int8
	// qosMasks[c] has bit p*VCs+v set for every (port, VC) pair whose VC
	// belongs to class c, for the bitmask allocator paths.
	qosMasks []uint64

	// The router's state block, private to this router (under sharding a
	// tile's worker writes only its own routers' blocks). in and out are
	// indexed by the flat VC index p*VCs+v that the state masks below use;
	// slab backs every input VC's flit ring.
	in   []inVC
	out  []outVC
	slab []Flit

	// lines[p] is the delay line output port p's switch winners travel on:
	// the router pipeline plus the outgoing link, tr+linkDelay cycles (tr
	// for the ejection port). It is nil for an unconnected port, which is
	// never forwarded to. own backs the lines of a router outside a network;
	// it is nil once a network wires the router onto the network's lines.
	lines []*sim.DelayLine[Transit]
	own   *ownLines

	up []upstreamRef

	// occupancy counts flits held in input buffers. A router with none has
	// nothing to compute and is not stepped: flits and credits in flight
	// live on delay lines, not in the router.
	occupancy int

	// dead marks a hard-killed router: its state has been purged and it
	// accepts neither flits nor credits. It stays false outside
	// fault-injection runs, so the fault checks never divert.
	dead bool

	// generalOnly keeps the router off stepOne, on the general compute
	// phases, whatever its occupancy. Only the test comparing the two sets it.
	generalOnly bool

	// maskHot is true when ports*VCs fits in 64 bits, enabling the input-VC
	// state bitmasks below; fixed at construction. The compute phases then
	// iterate only VCs that can make progress, in the ascending/rotated
	// order in which the nested loops of wider routers visit every VC, so
	// the two are bit-identical. Bit p*VCs+v denotes input VC (p, v).
	maskHot bool
	occMask uint64 // input VC holds at least one flit
	reqMask uint64 // front packet routed but not yet granted an output VC
	gntMask uint64 // front packet holds an output VC grant
	// gntPorts folds gntMask per input port: bit p is set while any VC of
	// input port p holds a grant. Switch allocation's stage 1 nominates
	// only from these ports.
	gntPorts uint64

	// Arbitration state.
	vaPtr    int
	saInPtr  []int
	saOutPtr []int

	// Per-cycle scratch, allocated in New and never grown.
	saInWin []int // per input port: the VC nominated this cycle
	// saNom[o] has bit p set while input port p's live nomination targets
	// output port o; stage 2 consumes (and zeroes) it.
	saNom     []uint64
	vaScratch []int
	vaReqs    []vaReq

	// Stats.
	FlitsRouted int64
	// portFlits counts flits forwarded through each output port, for
	// channel-utilization analysis.
	portFlits []int64

	// tracer, when non-nil, records head-flit lifecycle events
	// (route/VC-alloc/switch); nil keeps the hot path untouched.
	tracer *obs.Tracer
}

// New constructs the router for node id of the given topology, on private
// per-port delay lines: a flit that wins switch allocation at cycle c comes
// out of PopDelivery at c+tr (ejection) or c+tr+linkDelay, and a credit
// handed to ReturnCredit at cycle c is usable from Step(c+linkDelay+1).
// Callers must have validated cfg. network.New replaces the private lines
// with its own (SetLine) and wires upstream references (SetUpstream).
func New(id int, t *topology.Topology, alg routing.Algorithm, cfg Config) *Router {
	ports := t.Ports()
	total := ports * cfg.VCs
	r := &Router{
		ID:    id,
		topo:  t,
		alg:   alg,
		cfg:   cfg,
		ports: ports,
		vcs:   cfg.VCs,
		local: t.LocalPort(),
		in:    make([]inVC, total),
		out:   make([]outVC, total),
		slab:  make([]Flit, total*cfg.BufDepth),
		lines: make([]*sim.DelayLine[Transit], ports),
		own: &ownLines{
			flits:   make([]sim.DelayLine[Transit], ports),
			credits: make([]sim.DelayLine[Credit], ports),
		},
		up:        make([]upstreamRef, ports),
		saInPtr:   make([]int, ports),
		saOutPtr:  make([]int, ports),
		saInWin:   make([]int, ports),
		saNom:     make([]uint64, ports),
		vaScratch: make([]int, 0, total),
		portFlits: make([]int64, ports),
	}
	r.maskHot = total <= 64
	r.numClasses = alg.NumClasses(t)
	r.qos = max(cfg.Classes, 1)
	r.strict = r.qos > 1 && cfg.ClassArb == StrictPriority
	r.vcQoS = make([]int8, cfg.VCs)
	r.qosMasks = make([]uint64, r.qos)
	r.spanStride = r.numClasses + 1
	r.spans = make([]vcSpan, r.qos*r.spanStride)
	for qc := 0; qc < r.qos; qc++ {
		for class := routing.AnyClass; class < r.numClasses; class++ {
			lo, hi := r.classRange(qc, class)
			r.spans[qc*r.spanStride+class+1] = vcSpan{int32(lo), int32(hi)}
		}
		lo, hi := r.qosRange(qc)
		for v := lo; v < hi; v++ {
			r.vcQoS[v] = int8(qc)
			for p := 0; p < ports; p++ {
				r.qosMasks[qc] |= 1 << uint(p*cfg.VCs+v)
			}
		}
	}
	hops, cands := routing.NextHops(alg, t, id)
	candsPerVC := t.Dims + 1
	if hops != nil {
		r.hops, r.hopEnts, candsPerVC = hops, make([]hopEntry, 0, len(cands)*r.qos), 0
		for _, c := range cands {
			for qc := 0; qc < r.qos; qc++ {
				span, base := r.spans[qc*r.spanStride+c.Class+1], int32(c.Port*cfg.VCs)
				r.hopEnts = append(r.hopEnts, hopEntry{base + span.lo, base + span.hi, int32(c.Port), int32(c.Class)})
			}
		}
	}
	candSlab := make([]routing.Candidate, total*candsPerVC)
	if cfg.Arb == AgeBased {
		r.vaReqs = make([]vaReq, 0, total)
	}
	for p := 0; p < ports; p++ {
		var credits int32
		if p == r.local {
			credits = ejectionCredits
			r.own.flits[p] = sim.NewDelayLine[Transit](cfg.Delay)
			r.lines[p] = &r.own.flits[p]
		} else if link := t.LinkAt(id, p); link.Connected() {
			credits = int32(cfg.BufDepth)
			r.own.flits[p] = sim.NewDelayLine[Transit](cfg.Delay + link.Delay)
			r.lines[p] = &r.own.flits[p]
			// Credits pay the reverse link plus one credit-processing
			// cycle at the receiving router.
			r.own.credits[p] = sim.NewDelayLine[Credit](link.Delay + 1)
		}
		for v := 0; v < cfg.VCs; v++ {
			flat := p*cfg.VCs + v
			c := flat * candsPerVC
			r.in[flat] = inVC{base: int32(flat * cfg.BufDepth), port: int32(p), qos: r.vcQoS[v],
				cands: candSlab[c : c : c+candsPerVC]}
			r.out[flat].credits = credits
		}
	}
	return r
}

// SetLine moves output port p onto l, a delay line whose owner delivers
// what it carries. The router's private lines are dropped: from then on its
// owner delivers its flits and applies its returning credits (Credit), and
// PopDelivery and ReturnCredit no longer apply. Wiring-time only.
func (r *Router) SetLine(p int, l *sim.DelayLine[Transit]) {
	r.lines[p] = l
	r.own = nil
}

// SetUpstream records that input port inPort is fed by output port upPort of
// router upNode: each slot freed in inPort's buffers puts a credit for that
// output VC on line. A nil line returns no credits (the upstream router was
// killed). Wiring-time and fault-injection only.
func (r *Router) SetUpstream(inPort, upNode, upPort int, line *sim.DelayLine[Credit]) {
	r.up[inPort] = upstreamRef{line: line, node: int32(upNode), out: int32(upPort * r.vcs)}
}

// SetTracer attaches a flit-lifecycle tracer (nil detaches it).
func (r *Router) SetTracer(t *obs.Tracer) { r.tracer = t }

// SampleVCOccupancy returns the average and maximum buffer occupancy in
// flits across every input VC. It walks all buffers, so it is meant for
// sampling-time use, not the per-cycle path.
func (r *Router) SampleVCOccupancy() (avg float64, max int) {
	for i := range r.in {
		if n := int(r.in[i].n); n > max {
			max = n
		}
	}
	if len(r.in) > 0 {
		avg = float64(r.occupancy) / float64(len(r.in))
	}
	return avg, max
}

// qosRange maps a QoS class to its slice [lo, hi) of the VC space. With a
// single class this is the whole space.
func (r *Router) qosRange(qc int) (lo, hi int) {
	lo = qc * r.cfg.VCs / r.qos
	hi = (qc + 1) * r.cfg.VCs / r.qos
	return lo, hi
}

// classRange maps a routing VC class to its VC index range [lo, hi) within
// QoS class qc's partition. With one QoS class the partition is the whole
// VC space and the formula reduces to the classic routing-class split. New
// tabulates it into spans; nothing on the per-cycle path divides.
func (r *Router) classRange(qc, class int) (lo, hi int) {
	qlo, qhi := r.qosRange(qc)
	if class == routing.AnyClass {
		return qlo, qhi
	}
	w := qhi - qlo
	c := r.numClasses
	lo = qlo + class*w/c
	hi = qlo + (class+1)*w/c
	return lo, hi
}

// front returns the oldest flit of a non-empty input VC.
func (r *Router) front(v *inVC) Flit { return r.slab[v.base+v.head] }

// popFront removes and returns the oldest flit of a non-empty input VC. It
// clears the slot's packet pointer: a stale one would keep the packet, and
// the whole block its source queue built it in, alive after arrival.
func (r *Router) popFront(v *inVC) Flit {
	f := r.slab[v.base+v.head]
	r.slab[v.base+v.head].P = nil
	if v.head++; int(v.head) == r.cfg.BufDepth {
		v.head = 0
	}
	v.n--
	return f
}

// AcceptFlit places a delivered flit into the input buffer (port, vc) and
// reports whether it is the only flit the router buffers: the router went
// from idle to active, and the network adds it to its active set. It panics
// if the buffer is full: credit-based flow control guarantees space, so
// overflow indicates a simulator bug.
func (r *Router) AcceptFlit(port, vc int, f Flit) bool {
	if r.hops == nil && f.Head() {
		f.P.Route.ArriveAt(r.ID) // a memoised route never reads it
	}
	flat := port*r.vcs + vc
	v := &r.in[flat]
	depth := int32(r.cfg.BufDepth)
	if v.n == depth {
		panic(fmt.Sprintf("router %d: input buffer overflow at port %d vc %d", r.ID, port, vc))
	}
	i := v.head + v.n
	if i >= depth {
		i -= depth
	}
	r.slab[v.base+i] = f
	v.n++
	r.occupancy++
	r.occMask |= 1 << uint(flat)
	return r.occupancy == 1
}

// CanAcceptInjectionClass reports whether QoS class qc's injection buffer
// has space for another flit. Each class injects through the first VC of
// its own partition, so a backed-up low-priority class never blocks
// high-priority injection. With one class it is VC 0's buffer.
func (r *Router) CanAcceptInjectionClass(qc int) bool {
	return int(r.in[r.local*r.vcs+r.InjectionVCClass(qc)].n) < r.cfg.BufDepth
}

// InjectionVCClass returns the VC index class qc's injected flits enter:
// the first VC of the class's partition (VC 0 for a single class).
func (r *Router) InjectionVCClass(qc int) int { return int(r.spans[qc*r.spanStride].lo) }

// Credit gives output VC out (port*VCs+vc) back the downstream buffer slot
// a due credit stands for. A killed router drops it.
func (r *Router) Credit(out int) {
	if !r.dead {
		r.out[out].credits++
	}
}

// PopDelivery removes the flit, if any, that output port p's private line
// delivers at cycle now. It is for a router outside a network (see New).
func (r *Router) PopDelivery(now int64, p int) (Flit, bool) {
	e, ok := r.own.flits[p].PopReady(now)
	return e.F, ok
}

// ReturnCredit puts a credit for output VC (port, vc) on the port's private
// credit line at cycle now, as the downstream router would after freeing the
// slot; Step applies it once the link delay plus one cycle has passed. It
// is for a router outside a network (see New).
func (r *Router) ReturnCredit(now int64, port, vc int) {
	r.own.credits[port].Push(now, Credit{Node: int32(r.ID), Out: int32(port*r.vcs + vc)})
}

// PortFlits returns the number of flits forwarded through output port p
// since construction.
func (r *Router) PortFlits(p int) int64 { return r.portFlits[p] }

// Idle reports whether the router buffers no flits, so that Step has
// nothing to do.
func (r *Router) Idle() bool { return r.occupancy == 0 }

// Occupancy returns the number of flits buffered in input VCs.
func (r *Router) Occupancy() int { return r.occupancy }

// Step performs one compute cycle: route computation, VC allocation and
// switch allocation. A router on private lines first applies its due
// credits; in a network the deliver phase has applied them already.
func (r *Router) Step(now int64) {
	if r.own != nil {
		r.drainOwnCredits(now)
	}
	if r.occupancy == 0 {
		return
	}
	if r.oneVC() {
		r.stepOne(now, bits.TrailingZeros64(r.occMask))
		return
	}
	r.routeCompute(now)
	r.vcAllocate(now)
	r.switchAllocate(now)
}

// oneVC reports whether exactly one input VC of a router that buffers flits
// holds them, on a router whose state masks are exact.
func (r *Router) oneVC() bool {
	return r.maskHot && r.occMask&(r.occMask-1) == 0 && !r.generalOnly
}

// stepOne is Step for a router whose only occupied input VC is flat: the
// three phases in one straight pass over it, ending in the general path's
// state. Every arbitration has one contender, since the phases consider
// only occupied VCs, and round-robin, age and class keys only order
// contenders; vaPtr advances once, as in every vcAllocate branch, and
// forward moves the switch pointers. The nomination scratch (saInWin,
// saNom) is written before it is read in every general step. An unrouted
// single-flit packet on a router that memoises its routes and traces
// nothing first tries lonePass.
func (r *Router) stepOne(now int64, flat int) {
	ivc := &r.in[flat]
	if !ivc.routed && r.hops != nil && r.tracer == nil && r.lonePass(now, flat) {
		return
	}
	r.routeVC(now, flat)
	r.vaTryGrant(now, flat)
	if r.vaPtr++; r.vaPtr == len(r.in) {
		r.vaPtr = 0
	}
	if ivc.granted && r.out[ivc.out].credits > 0 {
		r.forward(now, int(ivc.port), flat-int(ivc.port)*r.vcs)
	}
}

// lonePass is stepOne for an unrouted front packet of one flit on a router
// that memoises its routes and traces nothing: route, VC allocation and
// switch allocation in one pass, in which the flit leaves if it can. It
// reports whether it did; if not, nothing has changed and stepOne runs its
// phases. A departing single flit is both head and tail, so the general
// path would set routed, granted, owned and the reqMask, gntMask and
// gntPorts bits for it and clear them again in the same step; the pass
// skips that and writes only what the general path leaves behind: the
// VC's route and grant fields, vaPtr and the forward.
func (r *Router) lonePass(now int64, flat int) bool {
	ivc := &r.in[flat]
	f := r.front(ivc)
	if f.P.Size != 1 {
		return false
	}
	hop := int32(int(r.hops[f.P.Dst])*r.qos + int(ivc.qos))
	e := &r.hopEnts[hop]
	best, bestCred := r.freest(e)
	if bestCred <= 0 {
		return false // no free output VC, or none with a credit
	}
	ivc.hop, ivc.out, ivc.outPort, ivc.outClass = hop, best, e.port, e.class
	ivc.outVC = best - e.port*int32(r.vcs)
	if r.vaPtr++; r.vaPtr == len(r.in) {
		r.vaPtr = 0
	}
	p := int(ivc.port)
	r.send(now, ivc, p, flat-p*r.vcs)
	return true
}

// drainOwnCredits applies every credit on the private lines that finished
// its return path.
func (r *Router) drainOwnCredits(now int64) {
	for p := range r.own.credits {
		l := &r.own.credits[p]
		for c, ok := l.PopReady(now); ok; c, ok = l.PopReady(now) {
			r.Credit(int(c.Out))
		}
	}
}

// routeCompute fills in candidates for every input VC whose front flit is
// an unrouted head. A VC's front packet is unrouted exactly while the VC is
// in neither reqMask nor gntMask, so the mask path visits just the occupied
// VCs with routing left to do, in the ascending (port, vc) order in which
// the nested loop visits every VC.
func (r *Router) routeCompute(now int64) {
	if r.maskHot {
		for m := r.occMask &^ (r.reqMask | r.gntMask); m != 0; m &= m - 1 {
			r.routeVC(now, bits.TrailingZeros64(m))
		}
		return
	}
	for flat := range r.in {
		r.routeVC(now, flat)
	}
}

// routeVC routes the front packet of input VC flat if it is an unrouted
// head flit.
func (r *Router) routeVC(now int64, flat int) {
	ivc := &r.in[flat]
	if ivc.routed || ivc.n == 0 {
		return
	}
	f := r.front(ivc)
	if !f.Head() {
		return
	}
	if r.hops != nil {
		ivc.hop = int32(int(r.hops[f.P.Dst])*r.qos + int(ivc.qos))
	} else {
		ivc.cands = r.alg.Candidates(r.topo, r.ID, f.P.Dst, &f.P.Route, ivc.cands[:0])
		if len(ivc.cands) == 0 {
			panic(fmt.Sprintf("router %d: no route for packet %d (dst %d)", r.ID, f.P.ID, f.P.Dst))
		}
	}
	ivc.routed = true
	r.reqMask |= 1 << uint(flat)
	if r.tracer != nil {
		r.tracer.Record(now, f.P.ID, r.ID, obs.PhaseRoute)
	}
}

// vcAllocate grants free output VCs to routed-but-ungranted input VCs.
// Requests are served in round-robin or age order; each request picks the
// free VC with the most credits among its candidates, which doubles as the
// congestion-sensitive output selection of adaptive routing.
func (r *Router) vcAllocate(now int64) {
	total := len(r.in)
	if r.maskHot && r.cfg.Arb != AgeBased {
		// Round robin over the request mask: bits >= vaPtr in ascending
		// order, then the wrap-around below it — exactly the (vaPtr+i)%total
		// visiting order of vaOrder, touching only actual requests.
		// Under strict priority the rotation runs class by class; classes
		// own disjoint VC partitions, so this changes the service order,
		// never which output VCs are reachable.
		if r.reqMask != 0 {
			below := uint64(1)<<uint(r.vaPtr) - 1
			if r.strict {
				for qc := 0; qc < r.qos; qc++ {
					cm := r.reqMask & r.qosMasks[qc]
					for m := cm &^ below; m != 0; m &= m - 1 {
						r.vaTryGrant(now, bits.TrailingZeros64(m))
					}
					for m := cm & below; m != 0; m &= m - 1 {
						r.vaTryGrant(now, bits.TrailingZeros64(m))
					}
				}
			} else {
				for m := r.reqMask &^ below; m != 0; m &= m - 1 {
					r.vaTryGrant(now, bits.TrailingZeros64(m))
				}
				for m := r.reqMask & below; m != 0; m &= m - 1 {
					r.vaTryGrant(now, bits.TrailingZeros64(m))
				}
			}
		}
		r.vaPtr++
		if r.vaPtr >= total {
			r.vaPtr = 0
		}
		return
	}
	for _, flat := range r.vaOrder() {
		r.vaTryGrant(now, flat)
	}
	r.vaPtr = (r.vaPtr + 1) % total
}

// vaTryGrant gives input VC flat the free candidate output VC with the
// most credits, if it is requesting and one is available.
func (r *Router) vaTryGrant(now int64, flat int) {
	ivc := &r.in[flat]
	if !ivc.routed || ivc.granted {
		return
	}
	best, bestCred := -1, int32(-1)
	var port, class int32
	if r.hopEnts != nil {
		e := &r.hopEnts[ivc.hop]
		o, _ := r.freest(e)
		best, port, class = int(o), e.port, e.class
	} else {
		// The packet's QoS class is static per input VC (see vcQoS); its
		// output-VC candidates come from the matching partition downstream.
		row := int(ivc.qos)*r.spanStride + 1
		for _, c := range ivc.cands {
			span := r.spans[row+c.Class]
			base := c.Port * r.vcs
			for o := base + int(span.lo); o < base+int(span.hi); o++ {
				if ov := &r.out[o]; !ov.owned && ov.credits > bestCred {
					best, bestCred, port, class = o, ov.credits, int32(c.Port), int32(c.Class)
				}
			}
		}
	}
	if best < 0 {
		return
	}
	ivc.granted = true
	ivc.out, ivc.outPort, ivc.outClass = int32(best), port, class
	ivc.outVC = int32(best) - port*int32(r.vcs)
	r.out[best].owned = true
	r.reqMask &^= 1 << uint(flat)
	r.gntMask |= 1 << uint(flat)
	r.gntPorts |= 1 << uint(ivc.port)
	if r.tracer != nil {
		r.tracer.Record(now, r.front(ivc).P.ID, r.ID, obs.PhaseVCAlloc)
	}
}

// freest returns the output VC of hop entry e that is free and has the
// most credits, the first of equals, and its credits: -1, -1 if every VC
// of the entry is owned.
func (r *Router) freest(e *hopEntry) (best, credits int32) {
	best, credits = -1, -1
	for o := e.lo; o < e.hi; o++ {
		if ov := &r.out[o]; !ov.owned && ov.credits > credits {
			best, credits = o, ov.credits
		}
	}
	return best, credits
}

// vaReq is one age-ordered VC allocation request (see vaOrder).
type vaReq struct {
	flat int
	qc   int8
	age  int64
}

// vaOrder returns the order in which VC allocation requests are served
// under age-based arbitration and on routers wider than the state masks.
// The returned slice and the age-sort scratch are
// router-owned storage sized in New, so a call allocates nothing.
func (r *Router) vaOrder() []int {
	total := len(r.in)
	order := r.vaScratch[:0]
	switch {
	case r.cfg.Arb == AgeBased:
		// Oldest front packet first (insertion sort; total is small).
		// Under strict priority the key is (class, age): all class-0
		// requests precede class 1, age ordering within each class.
		reqs := r.vaReqs[:0]
		for flat := range r.in {
			ivc := &r.in[flat]
			if !ivc.routed || ivc.granted || ivc.n == 0 {
				continue
			}
			q := vaReq{flat: flat, age: r.front(ivc).P.CreateTime}
			if r.strict {
				q.qc = ivc.qos
			}
			reqs = append(reqs, q)
		}
		for i := 1; i < len(reqs); i++ {
			for j := i; j > 0 && (reqs[j].qc < reqs[j-1].qc ||
				(reqs[j].qc == reqs[j-1].qc && reqs[j].age < reqs[j-1].age)); j-- {
				reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
			}
		}
		for _, q := range reqs {
			order = append(order, q.flat)
		}
	case r.strict:
		// Class-major rotation: class 0's requests in (vaPtr+i)%total
		// order, then class 1's, and so on.
		for qc := 0; qc < r.qos; qc++ {
			for i := 0; i < total; i++ {
				if flat := (r.vaPtr + i) % total; int(r.in[flat].qos) == qc {
					order = append(order, flat)
				}
			}
		}
	default:
		for i := 0; i < total; i++ {
			order = append(order, (r.vaPtr+i)%total)
		}
	}
	return order
}

// switchAllocate performs one pass of two-stage separable switch
// allocation and forwards the winning flits into the output pipelines.
// A second pass would match nothing: an input that lost in stage 2
// re-nominates the same VC, whose output is already matched.
func (r *Router) switchAllocate(now int64) {
	if r.maskHot {
		r.switchAllocateMask(now)
		return
	}
	// Stage 1: each input port nominates one ready VC.
	for p := 0; p < r.ports; p++ {
		r.nominate(p)
	}
	// Stage 2: each output port, in ascending order, picks one of the
	// inputs nominating it.
	for outP := 0; outP < r.ports; outP++ {
		nom := r.saNom[outP]
		r.saNom[outP] = 0
		if win := r.pickInputPort(outP, nom); win >= 0 {
			r.forward(now, win, r.saInWin[win])
		}
	}
}

// switchAllocateMask is the bitmask fast path of switchAllocate: stage 1
// touches only ports holding a VC grant (gntPorts) and stage 2 only the
// outputs those nominations target. Both stages visit ports in ascending
// order, as switchAllocate's loops do, minus ports that could not match,
// so matching — and therefore every forward — is bit-identical to them.
func (r *Router) switchAllocateMask(now int64) {
	var targets uint64
	for m := r.gntPorts; m != 0; m &= m - 1 {
		targets |= r.nominate(bits.TrailingZeros64(m))
	}
	for t := targets; t != 0; t &= t - 1 {
		outP := bits.TrailingZeros64(t)
		nom := r.saNom[outP]
		r.saNom[outP] = 0
		win := r.pickInputPort(outP, nom)
		r.forward(now, win, r.saInWin[win])
	}
}

// nominate runs stage 1 of switch allocation for input port p: if one of
// its VCs is ready, the VC is recorded in saInWin[p], p's bit is raised in
// the targeted output's saNom mask, and that output's bit is returned.
func (r *Router) nominate(p int) uint64 {
	v := r.pickInputVC(p)
	if v < 0 {
		return 0
	}
	r.saInWin[p] = v
	outP := uint(r.in[p*r.vcs+v].outPort)
	r.saNom[outP] |= 1 << uint(p)
	return 1 << outP
}

// pickInputVC returns the index of the VC at input port p that wins the
// port's crossbar input this cycle, or -1: the ready VC with the lowest
// arbKey, the first in rotation order from saInPtr[p] among equals.
func (r *Router) pickInputVC(p int) int {
	v := r.vcs
	if r.maskHot && r.gntMask>>uint(p*v)&(uint64(1)<<uint(v)-1) == 0 {
		return -1 // no VC of this port holds a grant, so none is ready
	}
	best, bestKey := -1, int64(0)
	for i := 0; i < v; i++ {
		cand := r.saInPtr[p] + i
		if cand >= v {
			cand -= v
		}
		ivc := &r.in[p*v+cand]
		if !ivc.granted || ivc.n == 0 || r.out[ivc.out].credits <= 0 {
			continue
		}
		key := r.arbKey(ivc)
		if key == 0 {
			return cand
		}
		if best < 0 || key < bestKey {
			best, bestKey = cand, key
		}
	}
	return best
}

// pickInputPort returns the input port whose nominated flit wins output
// port outP this cycle, or -1 when nom — the ports nominating outP — is
// empty: the lowest arbKey, the first in round-robin order from
// saOutPtr[outP] among equals. Rotating nom right by the pointer puts that
// port at bit 0 and wraps the ports below it to the top, so ascending set
// bits are the round-robin order.
func (r *Router) pickInputPort(outP int, nom uint64) int {
	ptr := r.saOutPtr[outP]
	best, bestKey := -1, int64(0)
	for m := bits.RotateLeft64(nom, -ptr); m != 0; m &= m - 1 {
		cand := (bits.TrailingZeros64(m) + ptr) & 63
		key := r.arbKey(&r.in[cand*r.vcs+r.saInWin[cand]])
		if key == 0 {
			return cand
		}
		if best < 0 || key < bestKey {
			best, bestKey = cand, key
		}
	}
	return best
}

// arbKey orders the candidates of both switch-allocation stages; the lowest
// key wins. It is the front packet's QoS class under strict priority, then
// its creation cycle under age-based arbitration — so plain round robin
// gives every candidate key 0, which nothing can beat, and the first one
// visited wins outright.
func (r *Router) arbKey(ivc *inVC) (key int64) {
	if r.strict {
		key = int64(ivc.qos) << 56
	}
	if r.cfg.Arb == AgeBased {
		key += r.front(ivc).P.CreateTime
	}
	return key
}

// forward moves the winning flit from input (p, v) onto its output port's
// delay line (send) and, once the packet's tail has left, releases the
// output VC and the input VC's allocation.
func (r *Router) forward(now int64, p, v int) {
	flat := p*r.vcs + v
	ivc := &r.in[flat]
	if f := r.send(now, ivc, p, v); f.Tail() {
		r.out[ivc.out].owned = false
		ivc.reset()
		r.gntMask &^= 1 << uint(flat)
		if r.gntMask>>uint(p*r.vcs)&(uint64(1)<<uint(r.vcs)-1) == 0 {
			r.gntPorts &^= 1 << uint(p)
		}
	}
}

// send pops the front flit of input VC (p, v), ivc, and sends it through
// the output VC the VC holds: onto the output port's delay line, with the
// credit for the freed slot onto the upstream router's credit line. It
// maintains the buffer counts, credits, hop count and arbitration
// pointers, and returns the flit. Only a router that asks the algorithm
// per head flit updates the packet's routing state: a memoised route
// never reads it (see routing.NextHops).
func (r *Router) send(now int64, ivc *inVC, p, v int) Flit {
	f := r.popFront(ivc)
	r.occupancy--
	if ivc.n == 0 {
		r.occMask &^= 1 << uint(p*r.vcs+v)
	}
	r.FlitsRouted++
	outP := int(ivc.outPort)

	if outP != r.local {
		r.out[ivc.out].credits--
		if f.Head() {
			if r.hops == nil {
				r.alg.Committed(r.topo, &f.P.Route, int(ivc.outClass))
				f.P.Route.Traverse(r.topo.LinkAt(r.ID, outP))
			}
			f.P.Hops++
		}
	}
	f.VC = ivc.outVC
	r.lines[outP].Push(now, Transit{Node: int32(r.ID), Port: int32(outP), F: f})
	r.portFlits[outP]++
	if r.tracer != nil && f.Head() {
		r.tracer.Record(now, f.P.ID, r.ID, obs.PhaseSwitch)
	}
	if up := &r.up[p]; up.line != nil {
		up.line.Push(now, Credit{Node: up.node, Out: up.out + int32(v)})
	}
	// Advance round-robin pointers past the winners.
	if v+1 == r.vcs {
		r.saInPtr[p] = 0
	} else {
		r.saInPtr[p] = v + 1
	}
	if p+1 == r.ports {
		r.saOutPtr[outP] = 0
	} else {
		r.saOutPtr[outP] = p + 1
	}
	return f
}

// --- Fault-injection support ----------------------------------------------
//
// The methods below exist for internal/fault and its invariant harness.
// None of them is called on fault-free runs, and the flag they set (dead)
// costs the hot paths only the always-false check wired in above. Outage
// windows are the network's: they hold a port's flits and credits on its
// side of the delay lines.

// Dead reports whether the router has been hard-killed.
func (r *Router) Dead() bool { return r.dead }

// Kill hard-fails the router at cycle now: every buffered flit is purged,
// with onFlit invoked for each so the network can account the loss, and its
// credit is bounced upstream (the buffer slots are gone with the router, but
// the upstream's credit counters must stay conserved for the surviving
// fabric). A dead router accepts neither flits nor credits; the owner of the
// lines purges the router's flits and credits in flight and discards
// deliveries into it.
func (r *Router) Kill(now int64, onFlit func(f Flit)) {
	if r.dead {
		return
	}
	r.dead = true
	for flat := range r.in {
		ivc := &r.in[flat]
		for ivc.n > 0 {
			onFlit(r.popFront(ivc))
			if up := &r.up[ivc.port]; up.line != nil {
				up.line.Push(now, Credit{Node: up.node, Out: up.out + int32(flat%r.vcs)})
			}
		}
		ivc.reset()
		r.out[flat].owned = false
	}
	r.occupancy = 0
	r.occMask, r.reqMask, r.gntMask, r.gntPorts = 0, 0, 0, 0
}

// OutCredits returns the credit count of output VC (p, vc); invariant
// checking compares it against the downstream buffer state.
func (r *Router) OutCredits(p, vc int) int { return int(r.out[p*r.vcs+vc].credits) }

// InBufLen returns the number of flits buffered in input VC (p, vc).
func (r *Router) InBufLen(p, vc int) int { return int(r.in[p*r.vcs+vc].n) }

// StuckVCs summarizes every input VC holding flits or an unreleased grant,
// for the deadlock watchdog's dump. Each entry reports the VC, its buffer
// depth, and the granted output if any.
func (r *Router) StuckVCs() []StuckVC {
	var out []StuckVC
	for flat := range r.in {
		ivc := &r.in[flat]
		if ivc.n == 0 && !ivc.granted {
			continue
		}
		s := StuckVC{Port: int(ivc.port), VC: flat % r.vcs, Buffered: int(ivc.n), Granted: ivc.granted}
		if ivc.granted {
			s.OutPort, s.OutVC = int(ivc.outPort), int(ivc.outVC)
			s.OutCredits = int(r.out[ivc.out].credits)
		}
		if ivc.n > 0 {
			s.PacketID = r.front(ivc).P.ID
		}
		out = append(out, s)
	}
	return out
}

// StuckVC describes one input VC that still holds state (see StuckVCs).
type StuckVC struct {
	Port, VC       int
	Buffered       int
	Granted        bool
	OutPort, OutVC int
	OutCredits     int
	PacketID       uint64
}
