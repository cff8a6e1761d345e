package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Phase is one stage of a flit's lifecycle through the network.
type Phase uint8

// Lifecycle phases, in pipeline order.
const (
	PhaseInject  Phase = iota // head flit entered the injection buffer
	PhaseRoute                // head flit's route computed at a router
	PhaseVCAlloc              // head flit granted an output VC
	PhaseSwitch               // flit won switch allocation and left the router
	PhaseEject                // tail flit reached the destination terminal
)

// String returns the phase's short name.
func (p Phase) String() string {
	switch p {
	case PhaseInject:
		return "inject"
	case PhaseRoute:
		return "route"
	case PhaseVCAlloc:
		return "vc-alloc"
	case PhaseSwitch:
		return "switch"
	case PhaseEject:
		return "eject"
	default:
		return "?"
	}
}

// Event is one recorded lifecycle point: packet Packet reached Phase at
// router/terminal Node in cycle Cycle.
type Event struct {
	Cycle  int64  `json:"cycle"`
	Packet uint64 `json:"packet"`
	Node   int32  `json:"node"`
	Phase  Phase  `json:"phase"`
}

// Tracer records flit-lifecycle events into a bounded ring buffer: when
// full, the oldest events are overwritten, so a long run keeps its most
// recent window — the part that shows where a hang or congestion collapse
// happened.
type Tracer struct {
	ring    []Event
	next    int
	n       int
	dropped int64
}

// DefaultTraceCap bounds the ring when the caller does not choose a size.
const DefaultTraceCap = 1 << 18

// NewTracer returns a tracer holding at most capacity events (the default
// when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Record appends one lifecycle event, overwriting the oldest when the ring
// is full. A nil tracer is a no-op.
func (t *Tracer) Record(cycle int64, packet uint64, node int, phase Phase) {
	if t == nil {
		return
	}
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.next] = Event{Cycle: cycle, Packet: packet, Node: int32(node), Phase: phase}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeJSON renders the trace in Chrome trace-event JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev). Each router/terminal
// becomes a track (tid), and each lifecycle stage becomes a complete event
// spanning from the stage's cycle to the packet's next recorded stage
// (timestamps are cycles presented as microseconds). An empty trace still
// yields a valid file.
func (t *Tracer) ChromeJSON() ([]byte, error) {
	evs := t.Events()
	// Order by packet then cycle then phase so each event's duration can
	// extend to the packet's next lifecycle point.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Packet != evs[j].Packet {
			return evs[i].Packet < evs[j].Packet
		}
		if evs[i].Cycle != evs[j].Cycle {
			return evs[i].Cycle < evs[j].Cycle
		}
		return evs[i].Phase < evs[j].Phase
	})
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	seenNode := map[int32]bool{}
	for i, ev := range evs {
		dur := 1.0
		if i+1 < len(evs) && evs[i+1].Packet == ev.Packet && evs[i+1].Cycle > ev.Cycle {
			dur = float64(evs[i+1].Cycle - ev.Cycle)
		}
		if !seenNode[ev.Node] {
			seenNode[ev.Node] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: int(ev.Node),
				Args: map[string]any{"name": fmt.Sprintf("router %d", ev.Node)},
			})
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("pkt %d %s", ev.Packet, ev.Phase),
			Ph:   "X",
			Ts:   float64(ev.Cycle),
			Dur:  dur,
			Pid:  0,
			Tid:  int(ev.Node),
			Args: map[string]any{"packet": ev.Packet, "phase": ev.Phase.String()},
		})
	}
	return json.MarshalIndent(out, "", " ")
}
