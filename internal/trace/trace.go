// Package trace implements the trace-driven evaluation methodology of
// §II: a sequence of abstract packet descriptors — timestamp, source,
// destination, size — captured from a closed-loop run and replayed on a
// network-only simulation. As the paper notes, replay is fast but loses
// message causality: injection times are fixed, so network feedback cannot
// reshape the workload.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"noceval/internal/engine"
	"noceval/internal/network"
	"noceval/internal/router"
)

// Event is one captured packet.
type Event struct {
	Time int64
	Src  int
	Dst  int
	Size int
	Kind router.Kind
}

// Trace is an ordered packet log.
type Trace struct {
	Nodes  int
	Events []Event
}

// Record appends one packet to the trace. As a network.Config.OnSend hook
// it captures every packet a run hands to Send.
func (t *Trace) Record(now int64, p *router.Packet) {
	t.Events = append(t.Events, Event{
		Time: now, Src: p.Src, Dst: p.Dst, Size: p.Size, Kind: p.Kind,
	})
}

// Write serializes the trace as one text line per event:
// "time src dst size kind".
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "nodes %d\n", t.Nodes); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d\n", e.Time, e.Src, e.Dst, e.Size, int(e.Kind)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write. It rejects a trace that Replay
// could not inject: fewer than one node, an endpoint outside [0, Nodes), a
// size below one flit, a negative time, or a time earlier than the event
// before it (a Trace is an ordered log).
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	if _, err := fmt.Fscanf(br, "nodes %d\n", &t.Nodes); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if t.Nodes < 1 {
		return nil, fmt.Errorf("trace: %d nodes, want at least 1", t.Nodes)
	}
	var prev int64
	for {
		var e Event
		var kind int
		_, err := fmt.Fscanf(br, "%d %d %d %d %d\n", &e.Time, &e.Src, &e.Dst, &e.Size, &kind)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: bad event after %d entries: %w", len(t.Events), err)
		}
		switch n := len(t.Events); {
		case e.Src < 0 || e.Src >= t.Nodes || e.Dst < 0 || e.Dst >= t.Nodes:
			return nil, fmt.Errorf("trace: event %d: %d -> %d outside the %d nodes", n, e.Src, e.Dst, t.Nodes)
		case e.Size < 1:
			return nil, fmt.Errorf("trace: event %d: size %d, want at least 1 flit", n, e.Size)
		case e.Time < prev:
			return nil, fmt.Errorf("trace: event %d: time %d is before %d", n, e.Time, prev)
		}
		prev = e.Time
		e.Kind = router.Kind(kind)
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// ReplayResult summarizes a trace replay.
type ReplayResult struct {
	// Runtime is the cycle the last packet arrived.
	Runtime int64
	// AvgLatency is the mean packet latency relative to the trace
	// timestamps.
	AvgLatency float64
	Packets    int
	Completed  bool
}

// Replay injects the trace into the given network at the recorded
// timestamps and runs until everything drains, or until maxCycles
// (default 50M). If the network is slower than the one the trace was
// captured on, source queues absorb the excess (injection times never
// adapt — the methodology's known limitation).
func Replay(t *Trace, cfg network.Config, maxCycles int64) (*ReplayResult, error) {
	res, _, err := replay(t, cfg, maxCycles)
	return res, err
}

// replay is Replay, also returning the engine's outcome: the engine
// fast-forwards over the gaps between events while the network is empty.
func replay(t *Trace, cfg network.Config, maxCycles int64) (*ReplayResult, engine.Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, engine.Outcome{}, err
	}
	if cfg.Topo.N < t.Nodes {
		return nil, engine.Outcome{}, fmt.Errorf("trace: network has %d nodes, trace needs %d", cfg.Topo.N, t.Nodes)
	}
	if maxCycles <= 0 {
		maxCycles = 50_000_000
	}
	net := network.New(cfg)
	d := &replayer{events: t.Events, net: net}
	net.OnReceive = d.onReceive
	eo := engine.RunOutcome(engine.Config{Net: net, Deadline: maxCycles}, d)
	net.Close()
	res := d.res // a copy: a pointer into d would keep the network alive
	res.Completed = eo.Completed
	if res.Packets > 0 {
		// Latencies are whole cycles, so a sum and a count give the exact mean.
		res.AvgLatency = float64(d.latencySum) / float64(res.Packets)
	}
	return &res, eo, nil
}

// replayer is the engine.Driver of a replay: each cycle it sends the
// events that are due, and between events it is idle, so the engine skips
// to the next timestamp whenever the network is empty.
type replayer struct {
	events     []Event
	next       int // events[next] is the first not yet sent
	net        *network.Network
	latencySum int64
	res        ReplayResult
}

func (d *replayer) onReceive(now int64, p *router.Packet) {
	d.latencySum += p.Latency()
	d.res.Packets++
	d.res.Runtime = now
}

// Cycle implements engine.Driver: send every event due by now, each
// stamped with its recorded time.
func (d *replayer) Cycle(now int64) {
	for ; d.next < len(d.events) && d.events[d.next].Time <= now; d.next++ {
		e := d.events[d.next]
		p := d.net.NewPacket(e.Src, e.Dst, e.Size, e.Kind)
		p.CreateTime = e.Time
		d.net.Send(p)
	}
}

// Done implements engine.Driver: every event is sent and the network
// holds nothing.
func (d *replayer) Done(int64) bool { return d.next == len(d.events) && d.net.Quiescent() }

// Idle implements engine.Driver: no event is due yet.
func (d *replayer) Idle(now int64) bool {
	return d.next == len(d.events) || d.events[d.next].Time > now
}

// NextEvent implements engine.Driver: the next event's timestamp.
func (d *replayer) NextEvent(int64) int64 {
	if d.next == len(d.events) {
		return engine.NoEvent
	}
	return d.events[d.next].Time
}
