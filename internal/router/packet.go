// Package router implements the cycle-accurate virtual-channel router
// microarchitecture used by every simulation in this repository: per-input
// VC buffers of configurable depth q, route computation, VC allocation and
// switch allocation performed each cycle, a configurable pipeline latency
// tr, credit-based flow control, and round-robin or age-based arbitration.
//
// The timing contract is the one §III-B of the paper relies on: a flit that
// wins switch allocation in cycle c becomes visible at the downstream input
// buffer in cycle c + tr + linkDelay (at the terminal in cycle c + tr), so a
// hop costs tr + linkDelay at zero load and raising tr from 1 to 2 to 4
// scales zero-load latency by 1.5x and 2.5x on 1-cycle links. The credit
// for the buffer slot a flit frees in cycle c is usable upstream from cycle
// c + linkDelay + 1.
//
// A router holds only what it computes on: its input buffers and allocation
// state. Switch winners and returned credits travel on delay lines
// (sim.DelayLine), which the router pushes onto and its owner drains. A
// router built by New alone runs on private per-port lines, which
// PopDelivery, ReturnCredit and Step drain under the contract above;
// network.New moves every router onto the network's shared lines.
package router

import "noceval/internal/routing"

// Kind tags a packet with its protocol role. The network layer does not
// interpret it; closed-loop models and the CMP simulator use it to drive
// request/reply state machines.
type Kind uint8

// Packet kinds used by the closed-loop models and the CMP substrate.
const (
	KindData      Kind = iota // plain synthetic traffic
	KindRequest               // remote read/write request
	KindReply                 // reply carrying data
	KindCoherence             // invalidation/ack (CMP substrate)
	KindKernel                // kernel-activity traffic (OS model)
)

// String returns the kind's short name.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindRequest:
		return "req"
	case KindReply:
		return "reply"
	case KindCoherence:
		return "coh"
	case KindKernel:
		return "kernel"
	default:
		return "?"
	}
}

// Packet is one network transaction. Flits of the packet share a single
// Packet instance. On routers that ask the routing algorithm per head
// flit, the head flit's arrival at each router and its departure over each
// link update Route; routers whose routes are memoised (routing.Memoises)
// never read it, and the network leaves it zero.
type Packet struct {
	ID   uint64
	Src  int
	Dst  int
	Size int // length in flits
	// Aux carries protocol-specific context (e.g. the transaction ID a
	// reply answers, or a cache-line address in the CMP substrate).
	Aux uint64

	// CreateTime is the cycle the packet entered its source queue;
	// InjectTime the cycle its head flit entered the injection buffer;
	// ArriveTime the cycle its tail flit reached the destination terminal.
	CreateTime int64
	InjectTime int64
	ArriveTime int64

	// Class is the packet's QoS traffic class, 0-based with 0 the highest
	// priority. Single-class configurations leave it 0. The router maps
	// each class onto its own slice of the VC space (see Config.Classes)
	// and, under strict-priority arbitration, always serves lower class
	// numbers first.
	Class int

	// FaultTxn is the end-to-end transaction identity assigned by the
	// recovery NIC (0 when untracked). Retransmitted clones share the
	// original's FaultTxn so the receiver can acknowledge whichever
	// incarnation arrives first and discard the rest.
	FaultTxn uint64

	Route routing.State
	Hops  int

	// The four one-byte fields sit together so they share one word: a
	// Packet is 128 bytes, two cache lines and its own allocation size
	// class (TestPacketSize).
	Kind Kind
	// Measured marks packets generated during an open-loop measurement
	// phase; only these contribute to latency statistics.
	Measured bool
	// FaultCorrupt marks a packet whose payload was corrupted on a link; the
	// destination NIC's checksum rejects it at ejection.
	FaultCorrupt bool
	// FaultDead marks a packet that died inside the network (head flit
	// dropped, flits purged by a router kill, or destination router dead);
	// its remaining flits are discarded at their next delivery.
	FaultDead bool
}

// Latency returns the packet's total latency including source queueing,
// the standard open-loop metric.
func (p *Packet) Latency() int64 { return p.ArriveTime - p.CreateTime }

// NetworkLatency returns the latency excluding source queueing.
func (p *Packet) NetworkLatency() int64 { return p.ArriveTime - p.InjectTime }

// Flit is one flow-control unit of a packet. Flits are small values passed
// through buffers and pipelines by copy.
type Flit struct {
	P   *Packet
	Seq int32 // position within the packet, 0-based
	VC  int32 // VC assigned for the hop currently being traversed
}

// Head reports whether this is the packet's first flit.
func (f Flit) Head() bool { return f.Seq == 0 }

// Tail reports whether this is the packet's last flit.
func (f Flit) Tail() bool { return int(f.Seq) == f.P.Size-1 }
