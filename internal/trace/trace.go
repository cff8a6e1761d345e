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

// Recorder captures packets injected into a network. Attach it before the
// run and read Trace afterwards.
type Recorder struct {
	trace Trace
}

// NewRecorder returns a recorder for a network with the given node count.
func NewRecorder(nodes int) *Recorder {
	return &Recorder{trace: Trace{Nodes: nodes}}
}

// Attach hooks the recorder into a network's send path, chaining any
// existing hook.
func (r *Recorder) Attach(n *network.Network) {
	prev := n.OnSend
	n.OnSend = func(now int64, p *router.Packet) {
		if prev != nil {
			prev(now, p)
		}
		r.Record(now, p)
	}
}

// Record logs one packet.
func (r *Recorder) Record(now int64, p *router.Packet) {
	r.trace.Events = append(r.trace.Events, Event{
		Time: now, Src: p.Src, Dst: p.Dst, Size: p.Size, Kind: p.Kind,
	})
}

// Trace returns the captured trace.
func (r *Recorder) Trace() *Trace { return &r.trace }

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

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	if _, err := fmt.Fscanf(br, "nodes %d\n", &t.Nodes); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
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
// timestamps and runs until everything drains. If the network is slower
// than the one the trace was captured on, source queues absorb the excess
// (injection times never adapt — the methodology's known limitation).
func Replay(t *Trace, cfg network.Config, maxCycles int64) (*ReplayResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topo.N < t.Nodes {
		return nil, fmt.Errorf("trace: network has %d nodes, trace needs %d", cfg.Topo.N, t.Nodes)
	}
	if maxCycles <= 0 {
		maxCycles = 50_000_000
	}
	net := network.New(cfg)
	var latencySum int64
	var packets int
	net.OnReceive = func(now int64, p *router.Packet) {
		latencySum += p.Latency()
		packets++
	}
	// Latencies are whole cycles, so a sum and a count give the exact mean.
	result := func(completed bool) *ReplayResult {
		res := &ReplayResult{Runtime: net.Now(), Packets: packets, Completed: completed}
		if packets > 0 {
			res.AvgLatency = float64(latencySum) / float64(packets)
		}
		return res
	}
	i := 0
	for {
		now := net.Now()
		if now >= maxCycles {
			return result(false), nil
		}
		for i < len(t.Events) && t.Events[i].Time <= now {
			e := t.Events[i]
			p := net.NewPacket(e.Src, e.Dst, e.Size, e.Kind)
			p.CreateTime = e.Time
			net.Send(p)
			i++
		}
		net.Step()
		if i == len(t.Events) && net.Quiescent() {
			break
		}
	}
	return result(true), nil
}
