package router

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"unsafe"

	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// TestPacketSize pins the packet's footprint: one is allocated per packet
// sent, so 128 bytes — the allocator's 128-byte size class and two cache
// lines — against 144 is an eighth of a saturated run's allocation volume.
// A new field that breaks this belongs beside the one-byte fields or needs
// the number re-decided.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 128 {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d, want <= 128", got)
	}
}

func TestConfigValidate(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	good := Config{VCs: 4, BufDepth: 4, Delay: 1}
	if err := good.Validate(topo, routing.Valiant{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []Config{
		{VCs: 0, BufDepth: 4, Delay: 1},
		{VCs: 2, BufDepth: 0, Delay: 1},
		{VCs: 2, BufDepth: 4, Delay: 0},
		{VCs: 2, BufDepth: 4, Delay: 1}, // VAL on torus needs 4 classes
	}
	for i, c := range cases {
		if err := c.Validate(topo, routing.Valiant{}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// 2 VCs is fine for DOR on a mesh.
	mesh := topology.NewMesh(4, 4)
	if err := (Config{VCs: 1, BufDepth: 1, Delay: 1}).Validate(mesh, routing.DOR{}); err != nil {
		t.Errorf("minimal mesh config rejected: %v", err)
	}
}

// TestConfigValidateClasses drives the class→VC partition check: every QoS
// class's VC slice must hold at least the routing algorithm's deadlock
// class count, and the error has to name the class and the shortfall.
func TestConfigValidateClasses(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	torus := topology.NewTorus(4, 4)
	cases := []struct {
		name    string
		cfg     Config
		topo    *topology.Topology
		alg     routing.Algorithm
		ok      bool
		errWant []string // substrings the error must contain
	}{
		{name: "single class unaffected", cfg: Config{VCs: 2, BufDepth: 4, Delay: 1}, topo: mesh, alg: routing.DOR{}, ok: true},
		{name: "two classes on DOR mesh", cfg: Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: 2}, topo: mesh, alg: routing.DOR{}, ok: true},
		{name: "two classes need 4 VCs under VAL", cfg: Config{VCs: 4, BufDepth: 4, Delay: 1, Classes: 2}, topo: torus, alg: routing.Valiant{}, ok: false,
			errWant: []string{"class 0", "short 2"}},
		{name: "two classes x VAL torus fit in 8 VCs", cfg: Config{VCs: 8, BufDepth: 4, Delay: 1, Classes: 2}, topo: torus, alg: routing.Valiant{}, ok: true},
		{name: "three classes over 4 VCs starve class 0", cfg: Config{VCs: 4, BufDepth: 4, Delay: 1, Classes: 3}, topo: mesh, alg: routing.DOR{}, ok: true},
		{name: "more classes than VCs", cfg: Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: 3}, topo: mesh, alg: routing.DOR{}, ok: false,
			errWant: []string{"class 0", "0 of 2 VCs", "short 1"}},
		{name: "negative classes", cfg: Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: -1}, topo: mesh, alg: routing.DOR{}, ok: false},
		{name: "127 classes fit the int8 class index", cfg: Config{VCs: 127, BufDepth: 1, Delay: 1, Classes: 127}, topo: mesh, alg: routing.DOR{}, ok: true},
		{name: "128 classes do not", cfg: Config{VCs: 128, BufDepth: 1, Delay: 1, Classes: 128}, topo: mesh, alg: routing.DOR{}, ok: false,
			errWant: []string{"router: Classes must be in [0, 127], got 128"}},
	}
	for _, c := range cases {
		err := c.cfg.Validate(c.topo, c.alg)
		if c.ok && err != nil {
			t.Errorf("%s: valid config rejected: %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: invalid config accepted", c.name)
				continue
			}
			for _, want := range c.errWant {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q missing %q", c.name, err, want)
				}
			}
		}
	}
}

// TestQoSRange checks the class→VC partition and the routing-class split
// nested inside it.
func TestQoSRange(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	// Valiant on torus needs 4 routing classes; 2 QoS classes over 8 VCs
	// give each class 4 VCs, one per routing class.
	r := New(0, topo, routing.Valiant{}, Config{VCs: 8, BufDepth: 2, Delay: 1, Classes: 2})
	if lo, hi := r.qosRange(0); lo != 0 || hi != 4 {
		t.Errorf("QoS class 0 range [%d,%d), want [0,4)", lo, hi)
	}
	if lo, hi := r.qosRange(1); lo != 4 || hi != 8 {
		t.Errorf("QoS class 1 range [%d,%d), want [4,8)", lo, hi)
	}
	// Routing classes subdivide each QoS slice.
	if lo, hi := r.classRange(1, 0); lo != 4 || hi != 5 {
		t.Errorf("QoS 1 routing 0 = [%d,%d), want [4,5)", lo, hi)
	}
	if lo, hi := r.classRange(1, routing.AnyClass); lo != 4 || hi != 8 {
		t.Errorf("QoS 1 any-class = [%d,%d), want [4,8)", lo, hi)
	}
	// The static VC→class table mirrors the partition.
	for v := 0; v < 8; v++ {
		want := int8(0)
		if v >= 4 {
			want = 1
		}
		if r.vcQoS[v] != want {
			t.Errorf("vcQoS[%d] = %d, want %d", v, r.vcQoS[v], want)
		}
	}
	// Per-class injection uses the first VC of each slice.
	if r.InjectionVCClass(0) != 0 || r.InjectionVCClass(1) != 4 {
		t.Errorf("injection VCs = %d, %d; want 0, 4", r.InjectionVCClass(0), r.InjectionVCClass(1))
	}
}

// TestStrictPrioritySwitch drives two single-flit packets of different
// classes through one router so they contend for the same output port, and
// checks the high-priority one wins the crossbar.
func TestStrictPrioritySwitch(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	local := topo.LocalPort()
	r := New(0, topo, routing.DOR{}, Config{VCs: 2, BufDepth: 2, Delay: 1, Classes: 2})
	mk := func(id uint64, class int) Flit {
		p := &Packet{ID: id, Src: 0, Dst: 3, Size: 1, Class: class, CreateTime: 0}
		p.Route = routing.NewState(-1)
		return Flits(p)[0]
	}
	// Low priority arrives first in its own injection VC, then high.
	r.AcceptFlit(local, r.InjectionVCClass(1), mk(1, 1))
	r.AcceptFlit(local, r.InjectionVCClass(0), mk(2, 0))
	r.Step(0)
	// Both route to the same output port (east toward node 3); exactly one
	// wins switch allocation per cycle, and strict priority says class 0.
	// The output pipeline carries tr + linkDelay = 2 cycles.
	var won []uint64
	for p := 0; p < r.ports; p++ {
		f, ok := r.PopDelivery(2, p)
		if ok {
			won = append(won, f.P.ID)
		}
	}
	if len(won) != 1 || won[0] != 2 {
		t.Fatalf("first switch winner = %v, want the class-0 packet (ID 2)", won)
	}
}

func TestClassRange(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	r := New(0, topo, routing.Valiant{}, Config{VCs: 4, BufDepth: 2, Delay: 1})
	// Valiant on mesh: 2 classes over 4 VCs -> [0,2) and [2,4).
	if lo, hi := r.classRange(0, 0); lo != 0 || hi != 2 {
		t.Errorf("class 0 range [%d,%d)", lo, hi)
	}
	if lo, hi := r.classRange(0, 1); lo != 2 || hi != 4 {
		t.Errorf("class 1 range [%d,%d)", lo, hi)
	}
	if lo, hi := r.classRange(0, routing.AnyClass); lo != 0 || hi != 4 {
		t.Errorf("any-class range [%d,%d)", lo, hi)
	}
}

func TestClassRangeUneven(t *testing.T) {
	// MA on a torus needs 3 classes; with 4 VCs the split is 1/1/2.
	topo := topology.NewTorus(4, 4)
	r := New(0, topo, routing.MinimalAdaptive{}, Config{VCs: 4, BufDepth: 2, Delay: 1})
	sizes := []int{}
	covered := 0
	for cls := 0; cls < 3; cls++ {
		lo, hi := r.classRange(0, cls)
		if hi <= lo {
			t.Fatalf("class %d empty: [%d,%d)", cls, lo, hi)
		}
		if lo != covered {
			t.Fatalf("class %d starts at %d, want %d (no gaps/overlap)", cls, lo, covered)
		}
		covered = hi
		sizes = append(sizes, hi-lo)
	}
	if covered != 4 {
		t.Fatalf("classes cover %d VCs, want 4", covered)
	}
	_ = sizes
}

func TestFlits(t *testing.T) {
	p := &Packet{ID: 1, Size: 3}
	fs := Flits(p)
	if len(fs) != 3 {
		t.Fatalf("flit count = %d", len(fs))
	}
	if !fs[0].Head() || fs[0].Tail() {
		t.Error("first flit head/tail flags wrong")
	}
	if fs[1].Head() || fs[1].Tail() {
		t.Error("middle flit flags wrong")
	}
	if fs[2].Head() || !fs[2].Tail() {
		t.Error("last flit flags wrong")
	}
	single := Flits(&Packet{ID: 2, Size: 1})
	if !single[0].Head() || !single[0].Tail() {
		t.Error("single-flit packet flags wrong")
	}
}

func TestPacketLatencies(t *testing.T) {
	p := &Packet{CreateTime: 10, InjectTime: 15, ArriveTime: 40}
	if p.Latency() != 30 || p.NetworkLatency() != 25 {
		t.Errorf("latencies = %d, %d", p.Latency(), p.NetworkLatency())
	}
}

func TestKindAndArbStrings(t *testing.T) {
	if KindRequest.String() != "req" || KindReply.String() != "reply" || KindData.String() != "data" {
		t.Error("kind strings broken")
	}
	if RoundRobin.String() != "rr" || AgeBased.String() != "age" {
		t.Error("arb strings broken")
	}
}

func TestIdleRouterSkipsWork(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	r := New(5, topo, routing.DOR{}, Config{VCs: 2, BufDepth: 4, Delay: 1})
	if !r.Idle() {
		t.Fatal("fresh router not idle")
	}
	r.Step(0)
	if r.FlitsRouted != 0 {
		t.Error("idle router routed flits")
	}
	p := &Packet{ID: 1, Src: 5, Dst: 6, Size: 1}
	p.Route = routing.NewState(-1)
	r.AcceptFlit(topo.LocalPort(), 0, Flit{P: p})
	if r.Idle() {
		t.Fatal("router with buffered flit reports idle")
	}
	r.Step(0)
	if r.FlitsRouted != 1 {
		t.Errorf("flit not forwarded: routed=%d", r.FlitsRouted)
	}
}

func TestInjectionBackpressure(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	r := New(0, topo, routing.DOR{}, Config{VCs: 2, BufDepth: 2, Delay: 1})
	p := &Packet{ID: 1, Src: 0, Dst: 15, Size: 4}
	p.Route = routing.NewState(-1)
	fs := Flits(p)
	if !r.CanAcceptInjectionClass(0) {
		t.Fatal("fresh injection buffer full")
	}
	r.AcceptFlit(topo.LocalPort(), 0, fs[0])
	r.AcceptFlit(topo.LocalPort(), 0, fs[1])
	if r.CanAcceptInjectionClass(0) {
		t.Error("injection buffer of depth 2 not full after 2 flits")
	}
}

// TestClassRangeTableMatchesFormula pins the range table New builds, read
// the way VC allocation reads it, against the arithmetic classRange for
// every (QoS class, routing class) pair including routing.AnyClass — over
// even, uneven (MA on a torus: 3 classes over 4 VCs) and multi-class
// partitions.
func TestClassRangeTableMatchesFormula(t *testing.T) {
	mesh, torus := topology.NewMesh(4, 4), topology.NewTorus(4, 4)
	cases := []struct {
		topo *topology.Topology
		alg  routing.Algorithm
		cfg  Config
	}{
		{mesh, routing.DOR{}, Config{VCs: 2, BufDepth: 2, Delay: 1}},
		{mesh, routing.Valiant{}, Config{VCs: 4, BufDepth: 2, Delay: 1}},
		{torus, routing.MinimalAdaptive{}, Config{VCs: 4, BufDepth: 2, Delay: 1}},
		{torus, routing.MinimalAdaptive{}, Config{VCs: 5, BufDepth: 2, Delay: 1}},
		{torus, routing.Valiant{}, Config{VCs: 8, BufDepth: 2, Delay: 1, Classes: 2}},
		{torus, routing.Valiant{}, Config{VCs: 16, BufDepth: 2, Delay: 1, Classes: 3}},
		{mesh, routing.DOR{}, Config{VCs: 4, BufDepth: 2, Delay: 1, Classes: 3}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(c.topo, c.alg); err != nil {
			t.Fatalf("%s/%s %+v: %v", c.topo.Name, c.alg.Name(), c.cfg, err)
		}
		r := New(0, c.topo, c.alg, c.cfg)
		for qc := 0; qc < r.qos; qc++ {
			for class := routing.AnyClass; class < r.numClasses; class++ {
				lo, hi := r.classRange(qc, class)
				if got := r.spans[qc*r.spanStride+1+class]; int(got.lo) != lo || int(got.hi) != hi {
					t.Errorf("%s/%s VCs=%d Classes=%d: table(qos %d, class %d) = [%d,%d), formula [%d,%d)",
						c.topo.Name, c.alg.Name(), c.cfg.VCs, c.cfg.Classes, qc, class, got.lo, got.hi, lo, hi)
				}
			}
			if lo, _ := r.qosRange(qc); r.InjectionVCClass(qc) != lo {
				t.Errorf("InjectionVCClass(%d) = %d, want %d", qc, r.InjectionVCClass(qc), lo)
			}
		}
	}
}

// Which input VCs saturate tops up.
const (
	fillAll    = iota // every VC every cycle
	fillSparse        // an uneven subset, so the state masks keep changing
	fillOne           // one VC, in rotation, whenever the router is empty
)

// The path a Step takes.
const (
	pathIdle    = iota // nothing buffered
	pathGeneral        // route, VC and switch allocation over every VC
	pathOneVC          // stepOne's phases
	pathLone           // stepOne's lone pass: a single flit routed and sent at once
)

// step runs r.Step(now) and returns the path it took. A one-VC step whose
// VC fronts an unrouted single-flit packet on a router that memoises its
// routes and traces nothing took the lone pass exactly when the flit left:
// when the pass declines, stepOne's phases can grant the flit but not
// send it, since the pass declines only for want of a free output VC with
// a credit.
func step(r *Router, now int64) int {
	path, lone := pathGeneral, false
	switch {
	case r.Idle():
		path = pathIdle
	case r.oneVC():
		path = pathOneVC
		v := &r.in[bits.TrailingZeros64(r.occMask)]
		lone = !v.routed && r.hops != nil && r.tracer == nil && r.front(v).P.Size == 1
	}
	routed := r.FlitsRouted
	r.Step(now)
	if lone && r.FlitsRouted > routed {
		path = pathLone
	}
	return path
}

// saturate returns a function that runs one cycle of a stand-alone router
// held at load: every flit leaving a pipeline is acknowledged with a credit,
// the input VCs fill selects are topped up with packets of size flits and
// their own QoS class, then the router steps. cycle returns the path the
// step took. The harness allocates nothing.
func saturate(r *Router, topo *topology.Topology, fill, size int) (cycle func() int) {
	pool := make([]Packet, 4096)
	next, now := 0, int64(0)
	return func() int {
		empty := r.Idle()
		for p := 0; p < r.ports; p++ {
			if f, ok := r.PopDelivery(now, p); ok && p != topo.LocalPort() {
				r.ReturnCredit(now, p, int(f.VC))
			}
			for v := 0; v < r.vcs; v++ {
				switch {
				case fill == fillSparse && (int(now)*31+p*7+v*3)%5 >= 2,
					fill == fillOne && (!empty || (p*r.vcs+v) != int(now)%len(r.in)):
					continue
				}
				for r.InBufLen(p, v)+size <= r.cfg.BufDepth {
					pkt := &pool[next%len(pool)]
					next++
					*pkt = Packet{ID: uint64(next), Src: r.ID, Dst: (next * 7) % topo.N, Size: size,
						Class: int(r.vcQoS[v]), CreateTime: now, Route: routing.NewState(-1)}
					for seq := 0; seq < size; seq++ {
						r.AcceptFlit(p, v, Flit{P: pkt, Seq: int32(seq)})
					}
				}
			}
		}
		path := step(r, now)
		now++
		return path
	}
}

// allocatorFlavours is every combination of arbiter and class arbitration.
func allocatorFlavours() []Config {
	var out []Config
	for _, arb := range []ArbPolicy{RoundRobin, AgeBased} {
		for _, qos := range []struct {
			classes int
			arb     ClassArbPolicy
		}{{1, StrictPriority}, {3, StrictPriority}, {3, ClassRoundRobin}} {
			out = append(out, Config{VCs: 3, BufDepth: 4, Delay: 1, Arb: arb, Classes: qos.classes, ClassArb: qos.arb})
		}
	}
	return out
}

// TestStepAllocatesNothing holds a router at load and requires zero
// allocations per Step, harness included, for every allocator flavour on
// the mask paths, on the nested-loop phases of routers wider than 64 VCs
// (the age order used to build its request list afresh every cycle) and,
// with one VC filled at a time, on the one-VC path: stepOne's phases with
// two-flit packets, its lone pass with single flits.
func TestStepAllocatesNothing(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, cfg := range allocatorFlavours() {
		for _, row := range []struct {
			name   string
			nested bool
			fill   int
			size   int
			path   int // a path that must run, or pathIdle for none
		}{
			{"mask", false, fillAll, 2, pathIdle},
			{"nested", true, fillAll, 2, pathIdle},
			{"one-VC", false, fillOne, 2, pathOneVC},
			{"lone", false, fillOne, 1, pathLone},
		} {
			name := fmt.Sprintf("arb=%s classes=%d/%s %s", cfg.Arb, cfg.Classes, cfg.ClassArb, row.name)
			r := New(5, topo, routing.DOR{}, cfg)
			if row.nested {
				r.maskHot = false
			}
			cycle := saturate(r, topo, row.fill, row.size)
			var paths [4]int
			for i := 0; i < 256; i++ { // every VC has routed once: candidate slices exist
				paths[cycle()]++
			}
			if r.FlitsRouted == 0 {
				t.Fatalf("%s: harness moved no flits", name)
			}
			if oneVC := paths[pathOneVC] + paths[pathLone]; (row.fill == fillOne) != (oneVC > 0) {
				t.Fatalf("%s: %d of 256 steps took the one-VC path", name, oneVC)
			}
			if row.path != pathIdle && paths[row.path] == 0 {
				t.Fatalf("%s: no step took path %d (steps by path %v)", name, row.path, paths)
			}
			if a := testing.AllocsPerRun(200, func() { cycle() }); a != 0 {
				t.Errorf("%s: %.1f allocs per Step, want 0", name, a)
			}
		}
	}
}

// dumpState renders everything a Step reads or writes, flits by packet id
// and sequence number so two routers fed from separate packet pools compare
// equal.
func dumpState(r *Router) string {
	var b strings.Builder
	flit := func(f Flit) { fmt.Fprintf(&b, " %d.%d/%d@%d", f.P.ID, f.Seq, f.VC, f.P.Hops) }
	// A routed VC's route prints as port/class[lo,hi) per candidate: its hop
	// entry on a router that memoises routes, its candidates with the
	// output-VC range the span table gives them otherwise.
	route := func(v *inVC) {
		switch {
		case !v.routed:
			fmt.Fprint(&b, " -")
		case r.hopEnts != nil:
			e := r.hopEnts[v.hop]
			fmt.Fprintf(&b, " %d/%d[%d,%d)", e.port, e.class, e.lo, e.hi)
		default:
			for _, c := range v.cands {
				span, base := r.spans[int(v.qos)*r.spanStride+1+c.Class], int32(c.Port*r.vcs)
				fmt.Fprintf(&b, " %d/%d[%d,%d)", c.Port, c.Class, base+span.lo, base+span.hi)
			}
		}
	}
	fmt.Fprintln(&b, r.FlitsRouted, r.occupancy, r.occMask, r.reqMask, r.gntMask,
		r.gntPorts, r.vaPtr, r.saInPtr, r.saOutPtr, r.portFlits)
	for i := range r.in {
		v := &r.in[i]
		fmt.Fprint(&b, i, v.n, v.routed, v.granted, v.out, v.outPort, v.outVC, v.outClass, r.out[i])
		route(v)
		for k := int32(0); k < v.n; k++ {
			flit(r.slab[v.base+(v.head+k)%int32(r.cfg.BufDepth)])
		}
		fmt.Fprintln(&b)
	}
	for p := range r.own.flits {
		fmt.Fprint(&b, "line ", p)
		r.own.flits[p].Each(func(e Transit) { flit(e.F) })
		r.own.credits[p].Each(func(c Credit) { fmt.Fprintf(&b, " c%d", c.Out) })
		fmt.Fprintln(&b)
	}
	return b.String()
}

// TestNestedLoopPhasesMatchMaskPaths feeds two routers identically, one of
// them with maskHot cleared so it runs the nested-loop compute phases that
// routers wider than 64 VCs always run, and requires identical state after
// every cycle — buffers, grants, credits, pipelines, arbitration pointers
// and the state masks themselves, which both keep up to date.
func TestNestedLoopPhasesMatchMaskPaths(t *testing.T) {
	mesh, torus := topology.NewMesh(4, 4), topology.NewTorus(4, 4)
	for _, base := range allocatorFlavours() {
		for _, c := range []struct {
			topo  *topology.Topology
			alg   routing.Algorithm
			vcs   int
			depth int
		}{
			{mesh, routing.DOR{}, 3, 4},
			{mesh, routing.MinimalAdaptive{}, 6, 2},
			{torus, routing.DOR{}, 12, 4}, // 5 ports x 12 VCs: the masks almost full
			{torus, routing.MinimalAdaptive{}, 9, 2},
		} {
			for _, fill := range []int{fillAll, fillSparse} {
				cfg := base
				cfg.VCs, cfg.BufDepth = c.vcs, c.depth
				name := fmt.Sprintf("%s/%s %+v fill=%d", c.topo.Name, c.alg.Name(), cfg, fill)
				if err := cfg.Validate(c.topo, c.alg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mask, nested := New(5, c.topo, c.alg, cfg), New(5, c.topo, c.alg, cfg)
				if !mask.maskHot {
					t.Fatalf("%s: router too wide for the mask paths", name)
				}
				nested.maskHot = false
				stepMask, stepNested := saturate(mask, c.topo, fill, 2), saturate(nested, c.topo, fill, 2)
				for i := 0; i < 150; i++ {
					stepMask()
					stepNested()
					if a, b := dumpState(mask), dumpState(nested); a != b {
						t.Fatalf("%s: state differs after cycle %d\nmask paths:\n%s\nnested loops:\n%s", name, i, a, b)
					}
				}
				if mask.FlitsRouted == 0 {
					t.Fatalf("%s: harness moved no flits", name)
				}
			}
		}
	}
}

// load is what randomTraffic offers a router.
type load struct {
	rate float64 // chance per cycle that an input VC with room receives a packet
	size int     // packet length in flits; 0 draws 1..BufDepth per packet
	dst  int     // every packet's destination; -1 draws one per packet
	// credit is the chance per cycle that the credits withheld so far
	// return; 1 returns each as its flit leaves the pipeline. Below 1 a
	// router runs out of credits and its lone pass falls back.
	credit float64
}

// randomTraffic returns a function that runs one cycle of a stand-alone
// router under random load l: every flit leaving a pipeline is acknowledged
// with a credit, at once or when l.credit releases the withheld ones, each
// input VC with room receives a packet with probability l.rate, and the
// router steps. cycle returns the path the step took. Two routers fed from
// generators of one seed see the same traffic.
func randomTraffic(r *Router, topo *topology.Topology, seed uint64, l load) (cycle func() int) {
	rng := sim.NewRNG(seed)
	var id uint64
	var withheld [][2]int // (port, VC) of credits not yet returned
	now := int64(0)
	return func() int {
		for p := 0; p < r.ports; p++ {
			if f, ok := r.PopDelivery(now, p); ok && p != topo.LocalPort() {
				withheld = append(withheld, [2]int{p, int(f.VC)})
			}
		}
		if l.credit >= 1 || rng.Bernoulli(l.credit) {
			for _, c := range withheld {
				r.ReturnCredit(now, c[0], c[1])
			}
			withheld = withheld[:0]
		}
		for p := 0; p < r.ports; p++ {
			for v := 0; v < r.vcs; v++ {
				size := l.size
				if size == 0 {
					size = 1 + rng.Intn(r.cfg.BufDepth)
				}
				if !rng.Bernoulli(l.rate) || r.InBufLen(p, v)+size > r.cfg.BufDepth {
					continue
				}
				dst := l.dst
				if dst < 0 {
					dst = rng.Intn(topo.N)
				}
				id++
				pkt := &Packet{ID: id, Src: r.ID, Dst: dst, Size: size,
					Class: int(r.vcQoS[v]), CreateTime: now, Route: routing.NewState(-1)}
				for seq := 0; seq < size; seq++ {
					r.AcceptFlit(p, v, Flit{P: pkt, Seq: int32(seq)})
				}
			}
		}
		path := step(r, now)
		now++
		return path
	}
}

// TestRouterNextHopsMatchCandidates: a router reading its next-hop row
// and one asking the algorithm per head flit stay in identical state after
// every cycle of random traffic, under every allocator flavour.
func TestRouterNextHopsMatchCandidates(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, cfg := range allocatorFlavours() {
		memo, asked := New(5, topo, routing.DOR{}, cfg), New(5, topo, routing.DOR{}, cfg)
		if memo.hops == nil {
			t.Fatal("no next-hop row for DOR on a mesh")
		}
		asked.hops, asked.hopEnts = nil, nil
		l := load{rate: 0.5, dst: -1, credit: 1}
		stepMemo, stepAsked := randomTraffic(memo, topo, 7, l), randomTraffic(asked, topo, 7, l)
		for i := 0; i < 2000; i++ {
			stepMemo()
			stepAsked()
			if a, b := dumpState(memo), dumpState(asked); a != b {
				t.Fatalf("%+v: state differs after cycle %d\nnext-hop row:\n%s\nCandidates:\n%s", cfg, i, a, b)
			}
		}
		if memo.FlitsRouted == 0 {
			t.Fatalf("%+v: harness moved no flits", cfg)
		}
	}
}

// oneVCHarness is one load TestOneVCPathMatchesGeneralPath and
// FuzzOneVCPathMatchesGeneralPath drive a router and its general-path twin
// with.
type oneVCHarness struct {
	name  string
	cycle func(r *Router) func() int
}

// compareOneVCPath steps a router and a twin kept on the general compute
// phases under h for cycles cycles, fails if their states ever differ, and
// adds the steps of the router under test to paths, by path.
func compareOneVCPath(t testing.TB, topo *topology.Topology, alg routing.Algorithm, cfg Config, h oneVCHarness, cycles int, paths *[4]int) {
	t.Helper()
	name := fmt.Sprintf("%s %+v %s", alg.Name(), cfg, h.name)
	fast, general := New(5, topo, alg, cfg), New(5, topo, alg, cfg)
	general.generalPathOnly()
	stepFast, stepGeneral := h.cycle(fast), h.cycle(general)
	for i := 0; i < cycles; i++ {
		paths[stepFast()]++
		if p := stepGeneral(); p == pathOneVC || p == pathLone {
			t.Fatalf("%s: the router kept on the general path took the one-VC path", name)
		}
		if a, b := dumpState(fast), dumpState(general); a != b {
			t.Fatalf("%s: state differs after cycle %d\none-VC path:\n%s\ngeneral path:\n%s", name, i, a, b)
		}
		// dumpState prints an unrouted VC's route as "-"; the hop entry it
		// last held must match too, as must the ring cursor.
		for k := range fast.in {
			if a, b := &fast.in[k], &general.in[k]; a.hop != b.hop || a.head != b.head {
				t.Fatalf("%s: input VC %d after cycle %d: hop %d head %d on the one-VC path, hop %d head %d on the general path",
					name, k, i, a.hop, a.head, b.hop, b.head)
			}
		}
	}
}

// TestOneVCPathMatchesGeneralPath feeds two routers identically, one of
// them kept on the general compute phases, and requires identical state
// after every cycle, under every allocator flavour and two QoS classes,
// VC count and buffer depth, with routes memoised (DOR) and asked per head
// flit (minimal adaptive, several candidates), single-flit and multi-flit
// packets, at loads where a router mostly holds one VC and where it mostly
// holds many, with credits held back so the lone pass falls back, and with
// every packet ejecting. Every path must have run, or the test would
// compare one with itself: the general phases, stepOne's phases and, where
// routes are memoised, its lone pass.
func TestOneVCPathMatchesGeneralPath(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	random := func(name string, l load) oneVCHarness {
		return oneVCHarness{name, func(r *Router) func() int { return randomTraffic(r, topo, 11, l) }}
	}
	harnesses := []oneVCHarness{
		random("random 0.02", load{rate: 0.02, dst: -1, credit: 1}),
		random("random 0.5", load{rate: 0.5, dst: -1, credit: 1}),
		random("single flits 0.05", load{rate: 0.05, size: 1, dst: -1, credit: 1}),
		// Every packet heads for neighbour 6, so one output port runs out of credits.
		random("credit-starved", load{rate: 0.02, size: 1, dst: 6, credit: 0.1}),
		random("ejection", load{rate: 0.05, dst: 5, credit: 1}),
		{"one VC", func(r *Router) func() int { return saturate(r, topo, fillOne, 2) }},
		{"sparse", func(r *Router) func() int { return saturate(r, topo, fillSparse, 2) }},
	}
	flavours := allocatorFlavours()
	for _, arb := range []ClassArbPolicy{StrictPriority, ClassRoundRobin} {
		flavours = append(flavours, Config{VCs: 2, BufDepth: 4, Delay: 1, Classes: 2, ClassArb: arb})
	}
	for _, alg := range []routing.Algorithm{routing.DOR{}, routing.MinimalAdaptive{}} {
		for _, base := range flavours {
			for _, vcs := range []int{2, 3, 6} {
				for _, depth := range []int{1, 4} {
					cfg := base
					cfg.VCs, cfg.BufDepth = vcs, depth
					if cfg.Validate(topo, alg) != nil {
						continue // too few VCs for the QoS partition and the algorithm's classes
					}
					var paths [4]int // steps of the router under test, by path
					for _, h := range harnesses {
						compareOneVCPath(t, topo, alg, cfg, h, 300, &paths)
					}
					lone := paths[pathLone] > 0
					if _, memo := alg.(routing.DOR); paths[pathGeneral] == 0 || paths[pathOneVC] == 0 || lone != memo {
						t.Fatalf("%s %+v: steps by path (idle, general, one-VC, lone) %v; general and one-VC must run, and lone exactly where routes are memoised",
							alg.Name(), cfg, paths)
					}
				}
			}
		}
	}
}

// FuzzOneVCPathMatchesGeneralPath is TestOneVCPathMatchesGeneralPath over
// fuzzed configurations and loads: seed, VC count, buffer depth, arbiter,
// QoS classes and their arbitration, algorithm, rate, packet size (0 for
// 1..BufDepth at random) and how readily credits return.
func FuzzOneVCPathMatchesGeneralPath(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(1), false, uint8(0), false, false, uint8(5), uint8(1), uint8(255))
	f.Add(uint64(2), uint8(3), uint8(4), true, uint8(3), false, false, uint8(128), uint8(0), uint8(255))
	f.Add(uint64(3), uint8(2), uint8(4), false, uint8(2), true, false, uint8(10), uint8(1), uint8(20))
	f.Add(uint64(4), uint8(6), uint8(2), true, uint8(0), false, true, uint8(30), uint8(0), uint8(100))
	topo := topology.NewMesh(4, 4)
	f.Fuzz(func(t *testing.T, seed uint64, vcs, depth uint8, age bool, classes uint8, classRR, ma bool, rate, size, credit uint8) {
		cfg := Config{VCs: 1 + int(vcs%8), BufDepth: 1 + int(depth%6), Delay: 1, Classes: int(classes % 4)}
		if age {
			cfg.Arb = AgeBased
		}
		if classRR {
			cfg.ClassArb = ClassRoundRobin
		}
		var alg routing.Algorithm = routing.DOR{}
		if ma {
			alg = routing.MinimalAdaptive{}
		}
		if cfg.Validate(topo, alg) != nil {
			t.Skip()
		}
		l := load{rate: float64(rate) / 255, size: int(size) % (cfg.BufDepth + 1), dst: -1, credit: float64(credit) / 255}
		h := oneVCHarness{"fuzz", func(r *Router) func() int { return randomTraffic(r, topo, seed, l) }}
		var paths [4]int
		compareOneVCPath(t, topo, alg, cfg, h, 200, &paths)
	})
}
