package network

import (
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
)

// queuedPacket is a packet waiting at its source whose head flit has not
// injected: every field NewPacket or the sender set, in 48 bytes instead of
// a 128-byte Packet and one 16-byte Flit per flit. The source is the queue's
// node, and the routing state is rebuilt from the intermediate node. Past
// saturation the source queues grow without bound, so this record is what
// an open-loop backlog costs.
type queuedPacket struct {
	id     uint64
	create int64
	aux    uint64
	txn    uint64
	dst    int32
	mid    int32 // routing intermediate, -1 for single-phase algorithms; unused on memoised routes
	size   int32
	class  int16
	kind   router.Kind
	meas   bool
}

// record packs p into a queue record. It panics on a size or class the
// record cannot hold; every configuration the repository builds is far
// inside both ranges.
func record(p *router.Packet) queuedPacket {
	r := queuedPacket{
		id:     p.ID,
		create: p.CreateTime,
		aux:    p.Aux,
		txn:    p.FaultTxn,
		dst:    int32(p.Dst),
		mid:    int32(p.Route.Intermediate),
		size:   int32(p.Size),
		class:  int16(p.Class),
		kind:   p.Kind,
		meas:   p.Measured,
	}
	if int(r.size) != p.Size || int(r.class) != p.Class {
		panic("network: packet size or class out of range")
	}
	return r
}

// sourceQueue is one (node, class) source queue: the packets whose head
// flit has not injected, as records, and a cursor on the packet whose
// flits are injecting now. The Packet exists from its head flit's
// injection on; a packet still queued when the run ends is never built.
type sourceQueue struct {
	recs  sim.FIFO[queuedPacket]
	cur   *router.Packet  // packet whose flits are injecting, nil between packets
	seq   int32           // cur's next flit
	flits int             // flits waiting: cur's remainder plus every record's size
	pkts  []router.Packet // the unused rest of the queue's packet block
}

// push queues a packet behind every packet already waiting.
func (q *sourceQueue) push(r queuedPacket) {
	q.recs.Push(r)
	q.flits += int(r.size)
}

// pop removes the queue's next flit; the queue must hold one. A head flit
// builds its packet from the record at cycle now, in the queue's packet
// block: the values NewPacket set, with InjectTime now, and the routing
// state only when route is set (routers that memoise their routes never
// read it).
func (q *sourceQueue) pop(src int, now int64, route bool) router.Flit {
	if q.cur == nil {
		r, _ := q.recs.Pop()
		if len(q.pkts) == 0 {
			q.pkts = make([]router.Packet, packetBlock)
		}
		p := &q.pkts[0]
		q.pkts = q.pkts[1:]
		// The slot is zero and used once, so the fields are stored one by
		// one, not copied in from a composite literal.
		p.ID, p.Src, p.Dst, p.Size = r.id, src, int(r.dst), int(r.size)
		p.Aux, p.FaultTxn = r.aux, r.txn
		p.CreateTime, p.InjectTime, p.ArriveTime = r.create, now, -1
		p.Class, p.Kind, p.Measured = int(r.class), r.kind, r.meas
		if route {
			p.Route = routing.NewState(int(r.mid))
			p.Route.ArriveAt(src) // an intermediate equal to the source is a no-op phase
		}
		q.cur = p
	}
	f := router.Flit{P: q.cur, Seq: q.seq}
	q.flits--
	if q.seq++; int(q.seq) == q.cur.Size {
		q.cur, q.seq = nil, 0
	}
	return f
}

// purge empties the queue. It returns the packet whose flits were
// injecting (nil if none) and the number of packets that never injected.
func (q *sourceQueue) purge() (cur *router.Packet, queued int) {
	cur, queued = q.cur, q.recs.Len()
	q.recs.Clear()
	q.cur, q.seq, q.flits = nil, 0, 0
	return cur, queued
}

// packetBlock is how many packets a source queue carves from one
// allocation. A packet is built in the inject phase, inside Step, and a
// block keeps the cycle loop at one allocation per 16 packets a queue
// injects rather than one per packet. A block is never refilled: the GC
// frees it once none of its packets is referenced, which is why the
// router clears the buffer and pipe slots it pops. Its packets share a
// source and were injected one after another, so they tend to die
// together.
const packetBlock = 16
