package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"noceval/internal/fault"
	"noceval/internal/trace"
)

func TestCaptureAndReplay(t *testing.T) {
	capture := Baseline()
	capture.Topology = "mesh4x4"
	slow := capture
	slow.RouterDelay = 4

	res, err := CaptureAndReplay(capture, slow, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replay.Completed {
		t.Fatal("replay did not complete")
	}
	// 16 nodes x 60 transactions x (request + reply).
	if want := 16 * 60 * 2; len(res.Trace.Events) != want {
		t.Errorf("trace has %d events, want %d", len(res.Trace.Events), want)
	}
	if res.Replay.Packets != len(res.Trace.Events) {
		t.Errorf("replayed %d of %d packets", res.Replay.Packets, len(res.Trace.Events))
	}
	// The methodology's known causality loss: the replay on the 4x slower
	// network stretches far less than a true closed-loop run would (which
	// the batch model says is ~2.4x).
	stretch := float64(res.Replay.Runtime) / float64(res.CaptureRuntime)
	if stretch > 1.5 {
		t.Errorf("replay stretched %.2fx; trace-driven replay should hide most of the slowdown", stretch)
	}
	if _, err := CaptureAndReplay(NetworkParams{Topology: "blob"}, slow, 10, 1); err == nil {
		t.Error("bad capture params accepted")
	}
	if _, err := CaptureAndReplay(capture, NetworkParams{Topology: "blob"}, 10, 1); err == nil {
		t.Error("bad replay params accepted")
	}
}

// Recording does not perturb the run: the capture's BatchResult is the
// batch spec's, byte for byte, and a fault-free replay of the trace on the
// capture network reproduces the capture's runtime and mean latency.
func TestCaptureIsTheBatchSpecRun(t *testing.T) {
	for _, c := range []struct {
		topo string
		m    int
	}{{"mesh4x4", 1}, {"mesh4x4", 4}, {"mesh8x8", 2}} {
		p := Baseline()
		p.Topology = c.topo
		spec := ExperimentSpec{Kind: "batch", Network: p, B: 100, M: c.m}
		res, err := new(RunSet).RunAll(context.Background(), []ExperimentSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		captured, tr, err := captureBatch(p, spec.B, spec.M)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(captured)
		want, _ := json.Marshal(res[0].Batch)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s m=%d: capture %s\nbatch spec %s", c.topo, c.m, got, want)
		}
		if int64(len(tr.Events)) != captured.TotalPackets {
			t.Errorf("%s m=%d: recorded %d events of %d packets", c.topo, c.m, len(tr.Events), captured.TotalPackets)
		}
		cfg, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := trace.Replay(tr, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed || rep.Runtime != captured.Runtime || rep.AvgLatency != captured.AvgPacketLatency {
			t.Errorf("%s m=%d: replay runtime %d latency %v, capture %d %v",
				c.topo, c.m, rep.Runtime, rep.AvgLatency, captured.Runtime, captured.AvgPacketLatency)
		}
	}
}

// A NIC retransmission is not new traffic: a faulted capture records each
// packet the batch protocol sent once, however often the NIC resent it.
func TestCaptureSkipsRetransmissions(t *testing.T) {
	p := Baseline()
	p.Topology = "mesh4x4"
	p.Fault = &fault.Params{DropRate: 0.01, Timeout: 200, MaxRetries: 8}
	res, tr, err := captureBatch(p, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.Retried == 0 {
		t.Fatalf("faults %+v: the capture retransmitted nothing", res.Faults)
	}
	if int64(len(tr.Events)) != res.TotalPackets {
		t.Errorf("recorded %d events, the batch sent %d packets (%d retransmissions)",
			len(tr.Events), res.TotalPackets, res.Faults.Retried)
	}
}
