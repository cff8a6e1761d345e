package openloop

// The open-loop source: the injection process, drawn ahead of the network
// on a goroutine of its own.
//
// Infinite source queues make the offered traffic independent of network
// state (§II-A of the paper), so the whole injection process — which node
// injects in which cycle, and every packet's size, destination and class —
// is a function of the driver's seed alone. One goroutine per run owns the
// driver's generator and draws that process in the serial order: per cycle,
// NextBernoulli over the nodes, then the size and the destination of each
// injecting node; for a class mix, each node and each class in priority
// order. It writes the draws into a few recycled chunks. The driver's Cycle
// only turns cycle now's entries into packets and sends them, so what the
// engine thread does per cycle is the network's own work.
//
// Exactness. Only the source draws from the driver's generator, one draw
// after another in the order above, and a chunk boundary falls between
// two cycles, where the serial loop drew nothing. The network's own
// generator (PickIntermediate inside NewPacket) and the packet ids stay on
// the engine thread, taken in send order as before. So every packet is
// the packet the in-thread loop built, cycle for cycle.
//
// Bounds. A chunk closes after chunkCycles cycles, or earlier when it no
// longer has room for one cycle in which every node injects in every
// class; its capacity is fixed, so the chunks in flight cost a few tens of
// KiB at any load. The source runs at most chunksInFlight chunks ahead of
// the network, and stops when Run returns, by whatever exit.

import (
	"fmt"
	"runtime/debug"

	"noceval/internal/sim"
	"noceval/internal/traffic"
)

const (
	// chunkCycles is the most cycles one chunk holds. A run ends at a
	// point of its drain that only the network knows, and every cycle the
	// source has drawn past it is wasted; at low load that point comes
	// within a few packet latencies.
	chunkCycles = 128
	// maxChunk is the injections a chunk holds (8 KiB of entries),
	// beside the room for one worst-case cycle.
	maxChunk = 1 << 9
	// chunksInFlight is how many chunks a run owns: the one the driver
	// reads, and those the source fills ahead of it.
	chunksInFlight = 4
)

// injection is one packet the source drew: its node, destination, size
// and class, and its cycle as an offset from its chunk's first.
type injection struct {
	node, dst, size int32
	at              uint16
	class           uint16
}

// chunk holds every injection of the cycles [from, to), in draw order.
type chunk struct {
	from, to int64
	inj      []injection
	// panicked is a panic the draws raised; the driver re-raises it on the
	// engine thread, where the caller's recovery can see it.
	panicked *drawPanic
}

// drawPanic is a panic a Pattern or SizeDist raised on the source
// goroutine: its value, and the stack it was raised on, which the
// re-raise on the engine thread would otherwise lose.
type drawPanic struct {
	value any
	stack []byte
}

func (p *drawPanic) Error() string {
	return fmt.Sprintf("openloop: the traffic source panicked: %v\n\n%s", p.value, p.stack)
}

// Unwrap returns the panic's value when it is an error.
func (p *drawPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}

// draws is the injection process: the driver's generator and what each
// draw needs. Only the source goroutine touches it once the run starts.
type draws struct {
	rng *sim.RNG
	n   int
	// prob is a single-class run's per-node injection probability; classProb,
	// when non-nil, a class mix's per class, in priority order.
	prob      float64
	classProb []float64
	// sizes and patterns are per class; a single-class run has one of each.
	sizes    []traffic.SizeDist
	patterns []traffic.Pattern
	// room is the most injections one cycle can draw.
	room int
}

// fill draws the cycles from `from` on into c until it closes, and returns
// the first cycle it did not draw.
func (dr *draws) fill(c *chunk, from int64) int64 {
	c.from, c.inj = from, c.inj[:0]
	end := from + chunkCycles
	now := from
	for ; now < end && cap(c.inj)-len(c.inj) >= dr.room; now++ {
		at := uint16(now - from)
		if dr.classProb == nil {
			for node := dr.rng.NextBernoulli(dr.prob, 0, dr.n); node < dr.n; node = dr.rng.NextBernoulli(dr.prob, node+1, dr.n) {
				c.inj = append(c.inj, dr.draw(node, 0, at))
			}
			continue
		}
		for node := 0; node < dr.n; node++ {
			for qc, p := range dr.classProb {
				if dr.rng.Bernoulli(p) {
					c.inj = append(c.inj, dr.draw(node, qc, at))
				}
			}
		}
	}
	c.to = now
	return now
}

// draw makes one packet's draws at node in class qc: its size, then its
// destination.
func (dr *draws) draw(node, qc int, at uint16) injection {
	size := dr.sizes[qc].Sample(dr.rng)
	dst := dr.patterns[qc].Dest(dr.rng, node, dr.n)
	return injection{node: int32(node), dst: int32(dst), size: int32(size), at: at, class: uint16(qc)}
}

// source is a running injection process. The driver takes chunks in cycle
// order from full and hands each back on free once it has sent it.
type source struct {
	full, free chan *chunk
	stop, done chan struct{}
}

// startSource starts the goroutine that draws dr ahead of the network.
// The caller must call close once the run ends.
func startSource(dr *draws) *source {
	s := &source{
		full: make(chan *chunk, chunksInFlight),
		free: make(chan *chunk, chunksInFlight),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for range chunksInFlight {
		s.free <- &chunk{inj: make([]injection, 0, maxChunk+dr.room)}
	}
	go s.run(dr)
	return s
}

// run fills chunks until stopped. Sends on full never block: it has room
// for every chunk.
func (s *source) run(dr *draws) {
	defer close(s.done)
	var c *chunk
	defer func() {
		if v := recover(); v != nil {
			c.panicked = &drawPanic{value: v, stack: debug.Stack()}
			s.full <- c
		}
	}()
	for from := int64(0); ; {
		select {
		case c = <-s.free:
		case <-s.stop:
			return
		}
		from = dr.fill(c, from)
		s.full <- c
	}
}

// next hands back the chunk the driver has sent (nil at the start) and
// returns the chunk after it.
func (s *source) next(sent *chunk) *chunk {
	if sent != nil {
		s.free <- sent
	}
	c := <-s.full
	if c.panicked != nil {
		panic(c.panicked)
	}
	return c
}

// close stops the source and waits for its goroutine to end.
func (s *source) close() {
	close(s.stop)
	<-s.done
}
