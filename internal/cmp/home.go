package cmp

// dirState is the directory's view of a line.
type dirState uint8

const (
	dInvalid dirState = iota
	dShared
	dModified
)

// dirEntry is the full-map directory state of one line plus its transient
// transaction state, in 16 bytes. The directory serializes transactions per
// line: while busy, newly arriving requests wait in home.deferred.
type dirEntry struct {
	sharers uint64 // bitmask, tiles <= 64
	state   dirState
	reqType MsgType
	// owner and requester are tile ids (owner -1 when none), int8 because
	// tiles <= 64; acksLeft counts at most tiles-1 invalidations.
	owner     int8
	requester int8
	acksLeft  uint8
	// staleWBFrom drops one in-flight Writeback from the given node: set
	// when a node re-requests a line whose M copy it just evicted.
	staleWBFrom int8
	flags       dirFlags
}

// dirFlags are a dirEntry's transaction flags.
type dirFlags uint8

const (
	dirBusy dirFlags = 1 << iota
	dirReqKernel
	dirDataReady
	// dirNeedOwner is set while waiting for the previous owner's response
	// to an Inv/Downgrade.
	dirNeedOwner
)

func (e *dirEntry) has(f dirFlags) bool { return e.flags&f != 0 }

type deferredMsg struct {
	msg Msg
	src int
}

// homeEvent is a scheduled L2/memory access completion; System.events
// keys it by the cycle the access finishes.
type homeEvent struct {
	tile int
	line uint64
}

// home is one tile's shared-L2 bank with its directory slice.
type home struct {
	sys  *System
	tile int
	l2   *Cache

	// The directory is a slab of entries, dir, and index maps a line to its
	// slot. Growing the slab moves every entry, so a *dirEntry from entry
	// is valid only until the next entry call. That is safe because no
	// handler holds one across such a call: handlers reach other lines'
	// entries only through delivered messages, and Fabric.Send only queues
	// (NetFabric and IdealFabric deliver on a later Step), so no handler
	// runs inside another.
	dir   []dirEntry
	index map[uint64]int32
	// deferred holds, per busy line that has waiters, the requests that
	// arrived while it was busy, oldest first.
	deferred map[uint64][]deferredMsg

	// L2 access statistics, split user/kernel by transaction class.
	l2Access [2]int64
	l2Miss   [2]int64
}

func newHome(sys *System, tile int, l2 *Cache) *home {
	return &home{sys: sys, tile: tile, l2: l2, index: map[uint64]int32{}, deferred: map[uint64][]deferredMsg{}}
}

// entry returns line's directory entry, creating it on first use.
func (h *home) entry(line uint64) *dirEntry {
	i, ok := h.index[line]
	if !ok {
		i = int32(len(h.dir))
		h.dir = append(h.dir, dirEntry{owner: -1, staleWBFrom: -1})
		h.index[line] = i
	}
	return &h.dir[i]
}

// handle processes one protocol message arriving at this home tile.
func (h *home) handle(m Msg, src int) {
	e := h.entry(m.Line)
	switch m.Type {
	case MsgGetS, MsgGetM:
		if e.has(dirBusy) {
			h.deferred[m.Line] = append(h.deferred[m.Line], deferredMsg{msg: m, src: src})
			return
		}
		h.start(e, m, src)
	case MsgInvAck:
		if !e.has(dirBusy) {
			return // late ack from a silently evicted sharer; ignore
		}
		if e.has(dirNeedOwner) && src == int(e.owner) {
			// The owner lost the line (eviction or grant race) and has no
			// data: fall back to L2/memory for the data.
			e.flags &^= dirNeedOwner
			h.fetchData(e, m.Line)
			h.tryComplete(e, m.Line)
			return
		}
		if e.acksLeft > 0 {
			e.acksLeft--
		}
		h.tryComplete(e, m.Line)
	case MsgWBData:
		// Data response from the previous owner to an Inv/Downgrade.
		if e.has(dirBusy) && e.has(dirNeedOwner) && src == int(e.owner) {
			e.flags = e.flags&^dirNeedOwner | dirDataReady
			h.l2.Insert(m.Line, Shared)
			h.tryComplete(e, m.Line)
			return
		}
		// Unsolicited data (e.g. race remnant): absorb like a writeback.
		h.writeback(e, m.Line, src)
	case MsgWriteback:
		if int(e.staleWBFrom) == src {
			e.staleWBFrom = -1
			return
		}
		if e.has(dirBusy) && e.has(dirNeedOwner) && src == int(e.owner) {
			// The eviction raced with our Inv/Downgrade; use its data.
			e.flags = e.flags&^dirNeedOwner | dirDataReady
			h.l2.Insert(m.Line, Shared)
			h.tryComplete(e, m.Line)
			return
		}
		h.writeback(e, m.Line, src)
	}
}

// writeback retires an owner's spontaneous M eviction.
func (h *home) writeback(e *dirEntry, line uint64, src int) {
	if e.state == dModified && int(e.owner) == src {
		e.state = dInvalid
		e.owner = -1
		e.sharers = 0
		h.l2.Insert(line, Shared)
	}
}

// start begins serving a GetS/GetM transaction.
func (h *home) start(e *dirEntry, m Msg, src int) {
	e.flags = dirBusy
	if m.Kernel {
		e.flags |= dirReqKernel
	}
	e.reqType = m.Type
	e.requester = int8(m.Node)
	e.acksLeft = 0

	if e.state == dModified && e.owner == e.requester {
		// The owner evicted the line and is re-requesting before its
		// writeback arrived; expect and drop that writeback.
		e.staleWBFrom = e.requester
		e.state = dInvalid
		e.owner = -1
	}

	switch {
	case e.state == dModified:
		e.flags |= dirNeedOwner
		if m.Type == MsgGetS {
			h.sys.send(h.tile, int(e.owner), Msg{Type: MsgDowngrade, Line: m.Line, Node: m.Node, Kernel: m.Kernel})
		} else {
			h.sys.send(h.tile, int(e.owner), Msg{Type: MsgInv, Line: m.Line, Node: m.Node, Kernel: m.Kernel})
		}
	case e.state == dShared && m.Type == MsgGetM:
		for t := 0; t < h.sys.tiles; t++ {
			if t == m.Node || e.sharers&(1<<uint(t)) == 0 {
				continue
			}
			e.acksLeft++
			h.sys.send(h.tile, t, Msg{Type: MsgInv, Line: m.Line, Node: m.Node, Kernel: m.Kernel})
		}
		h.fetchData(e, m.Line)
	default:
		h.fetchData(e, m.Line)
	}
	h.tryComplete(e, m.Line)
}

// fetchData schedules the L2 (or L2+memory) access that produces the data.
func (h *home) fetchData(e *dirEntry, line uint64) {
	cls := 0
	if e.has(dirReqKernel) {
		cls = 1
	}
	h.l2Access[cls]++
	lat := h.sys.cfg.L2Latency
	if h.l2.Lookup(line) == Invalid {
		h.l2Miss[cls]++
		lat += h.sys.cfg.MemLatency
		h.l2.Insert(line, Shared)
	}
	h.sys.events.Push(h.sys.fabric.Now()+lat, homeEvent{tile: h.tile, line: line})
}

// dataArrived is called when a scheduled L2/memory access completes.
func (h *home) dataArrived(line uint64) {
	i, ok := h.index[line]
	if !ok || !h.dir[i].has(dirBusy) {
		return
	}
	e := &h.dir[i]
	e.flags |= dirDataReady
	h.tryComplete(e, line)
}

// tryComplete finishes the transaction once all acks and the data are in,
// then starts the next deferred request, if any.
func (h *home) tryComplete(e *dirEntry, line uint64) {
	if !e.has(dirBusy) || e.has(dirNeedOwner) || e.acksLeft > 0 || !e.has(dirDataReady) {
		return
	}
	grant := Msg{Type: MsgData, Line: line, Node: int(e.requester), Kernel: e.has(dirReqKernel)}
	if e.reqType == MsgGetM {
		grant.GrantM = true
		e.state = dModified
		e.owner = e.requester
		e.sharers = 1 << uint(e.requester)
	} else {
		if e.state == dModified {
			// Previous owner was downgraded to Shared.
			e.sharers = 1 << uint(e.owner)
			e.owner = -1
		}
		e.state = dShared
		e.sharers |= 1 << uint(e.requester)
	}
	h.sys.send(h.tile, int(e.requester), grant)
	e.flags &^= dirBusy
	if q := h.deferred[line]; len(q) > 0 {
		if len(q) == 1 {
			delete(h.deferred, line)
		} else {
			h.deferred[line] = q[1:]
		}
		h.start(e, q[0].msg, q[0].src)
	}
}
