package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every instrument obtained through a nil registry/observer must be
	// usable without panicking and report zero values.
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := r.Histogram("z", 0, 10, 4)
	h.Observe(1)
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("nil histogram recorded something")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}

	var tr *Tracer
	tr.Record(1, 2, 3, PhaseInject)
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer recorded something")
	}

	var o *Observer
	if o.ShouldSample(100) {
		t.Error("nil observer wants to sample")
	}
	if o.SampleEvery() != 0 {
		t.Error("nil observer has a period")
	}

	var tele *Telemetry
	tele.AddRouter(RouterSample{})
	tele.AddNode(NodeSample{})
	if got := tele.RouterCSV(); got != routerCSVHeader+"\n" {
		t.Errorf("nil telemetry CSV = %q", got)
	}

	var p *Progress
	p.Tick(1, 2)
	p.Done(3)
}

func TestRegistryMetricsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.flits").Add(42)
	r.Gauge("batch.finished").Set(7.5)
	h := r.Histogram("latency", 0, 100, 10)
	for _, v := range []float64{5, 15, 95, 150, -3} { // incl. under/overflow
		h.Observe(v)
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []MetricPoint
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r.Snapshot()) {
		t.Fatalf("metrics round trip mismatch:\n got %+v\nwant %+v", back, r.Snapshot())
	}
	// Snapshot is sorted by name for stable diffs.
	for i := 1; i < len(back); i++ {
		if back[i-1].Name > back[i].Name {
			t.Fatalf("snapshot not sorted: %q > %q", back[i-1].Name, back[i].Name)
		}
	}
	if h.Count() != 5 || h.Mean() != (5+15+95+150-3)/5.0 {
		t.Errorf("histogram count/mean = %d/%g", h.Count(), h.Mean())
	}
}

func TestTelemetryCSVRoundTrip(t *testing.T) {
	tele := &Telemetry{}
	tele.AddRouter(RouterSample{Cycle: 100, Router: 3, XbarUtil: 1.25, LinkUtil: 0.5,
		BufOcc: 7, AvgVCOcc: 0.875, MaxVCOcc: 4, Injected: 12, Ejected: 9})
	tele.AddRouter(RouterSample{Cycle: 200, Router: 0, XbarUtil: 0, LinkUtil: 0.0625})
	tele.AddNode(NodeSample{Cycle: 100, Node: 3, Outstanding: 4})
	tele.AddNode(NodeSample{Cycle: 200, Node: 0})

	routers, err := ParseRouterCSV(tele.RouterCSV())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(routers, tele.Routers) {
		t.Fatalf("router CSV round trip mismatch:\n got %+v\nwant %+v", routers, tele.Routers)
	}
	nodes, err := ParseNodeCSV(tele.NodeCSV())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nodes, tele.Nodes) {
		t.Fatalf("node CSV round trip mismatch:\n got %+v\nwant %+v", nodes, tele.Nodes)
	}

	js, err := tele.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Telemetry
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Routers, tele.Routers) || !reflect.DeepEqual(back.Nodes, tele.Nodes) {
		t.Fatal("telemetry JSON round trip mismatch")
	}

	if _, err := ParseRouterCSV("bogus\n1,2"); err == nil {
		t.Error("bad router CSV header accepted")
	}
	if _, err := ParseNodeCSV(nodeCSVHeader + "\n1,2"); err == nil {
		t.Error("short node CSV row accepted")
	}
}

func TestTelemetryMeanXbarUtil(t *testing.T) {
	tele := &Telemetry{}
	tele.AddRouter(RouterSample{Cycle: 100, Router: 1, XbarUtil: 1.0})
	tele.AddRouter(RouterSample{Cycle: 200, Router: 1, XbarUtil: 3.0})
	tele.AddRouter(RouterSample{Cycle: 100, Router: 0, XbarUtil: 0.5})
	got := tele.MeanXbarUtil(3)
	want := []float64{0.5, 2.0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MeanXbarUtil = %v, want %v", got, want)
	}
}

func TestTracerRingAndChromeRoundTrip(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(int64(i), uint64(i), i%3, PhaseInject)
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("ring len=%d dropped=%d, want 4/2", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Cycle != 2 || evs[3].Cycle != 5 {
		t.Fatalf("ring did not keep the newest window: %+v", evs)
	}

	// A full lifecycle round-trips through the Chrome trace format.
	tr = NewTracer(0)
	want := []Event{
		{Cycle: 0, Packet: 9, Node: 1, Phase: PhaseInject},
		{Cycle: 0, Packet: 9, Node: 1, Phase: PhaseRoute},
		{Cycle: 1, Packet: 9, Node: 1, Phase: PhaseVCAlloc},
		{Cycle: 2, Packet: 9, Node: 1, Phase: PhaseSwitch},
		{Cycle: 4, Packet: 9, Node: 2, Phase: PhaseEject},
	}
	for _, e := range want {
		tr.Record(e.Cycle, e.Packet, int(e.Node), e.Phase)
	}
	js, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The file must be a valid JSON object with a traceEvents array
	// (what chrome://tracing expects).
	var shape struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &shape); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(shape.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	back, err := ParseChromeJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("chrome round trip mismatch:\n got %+v\nwant %+v", back, want)
	}

	// Empty traces still produce a loadable file.
	js, err = NewTracer(1).ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "traceEvents") {
		t.Fatal("empty trace missing traceEvents")
	}
}

func TestObserverSampling(t *testing.T) {
	if NewObserver(Options{}) != nil {
		t.Fatal("all-off observer should be nil")
	}
	o := NewObserver(Options{Metrics: true, SampleEvery: 10})
	if o.Tracer != nil {
		t.Error("tracer enabled without Trace option")
	}
	if o.ShouldSample(5) {
		t.Error("sampled before the first period")
	}
	if !o.ShouldSample(10) {
		t.Error("did not sample at the period")
	}
	// Idempotent within a cycle: a second caller sees the same answer.
	if !o.ShouldSample(10) {
		t.Error("second caller in the same cycle missed the sample")
	}
	if o.ShouldSample(11) {
		t.Error("sampled off-schedule")
	}
	// Resynchronizes past skipped cycles like sim.Ticker.
	if !o.ShouldSample(45) {
		t.Error("skip lost the sample")
	}
	if o.ShouldSample(49) {
		t.Error("sampled before the resynchronized period")
	}
	if !o.ShouldSample(50) {
		t.Error("did not resynchronize")
	}

	trOnly := NewObserver(Options{Trace: true})
	if trOnly == nil || trOnly.Tracer == nil {
		t.Fatal("trace-only observer missing tracer")
	}
	if trOnly.ShouldSample(100) {
		t.Error("trace-only observer wants telemetry samples")
	}
}

func TestProgressHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Nanosecond)
	p.checkEvery = 1 // examine the wall clock on every tick for the test
	p.Tick(0, 0)
	time.Sleep(time.Millisecond)
	p.Tick(50_000, 100_000)
	if !strings.Contains(buf.String(), "cycles/s") || !strings.Contains(buf.String(), "ETA") {
		t.Fatalf("heartbeat missing rate/ETA: %q", buf.String())
	}
	p.Done(100_000)
	if !strings.Contains(buf.String(), "finished at cycle 100000") {
		t.Fatalf("missing final summary: %q", buf.String())
	}

	// A run that never printed a heartbeat stays quiet on Done.
	var quiet bytes.Buffer
	q := NewProgress(&quiet, time.Hour)
	q.Tick(1, 10)
	q.Done(10)
	if quiet.Len() != 0 {
		t.Fatalf("quiet run printed: %q", quiet.String())
	}
}
