package network

import (
	"testing"

	"noceval/internal/fault"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
)

// TestTwoOutageWindowsOnOnePort: a port that two disjoint outage windows
// name is down in each window and up before, between and after them, and in
// each window it holds both the flits that come due on it and the credits
// returning to it. The traffic keeps the port busy throughout, and every
// packet arrives once the windows have passed.
func TestTwoOutageWindowsOnOnePort(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	const node = 5
	port := -1
	for p := 0; p < topo.Radix; p++ {
		if topo.LinkAt(node, p).Connected() {
			port = p
			break
		}
	}
	dst := topo.LinkAt(node, port).To
	windows := []fault.Outage{
		{Node: node, Port: port, From: 100, Until: 200},
		{Node: node, Port: port, From: 300, Until: 400},
	}
	n := New(Config{
		Topo:    topo,
		Routing: routing.DOR{},
		Router:  router.Config{VCs: 2, BufDepth: 4, Delay: 1},
		Seed:    1,
		Fault:   &fault.Params{Outages: windows},
	})
	o := n.outage(node, int32(port))
	var heldFlits, heldCredits [2]int // the most each window held
	for c := int64(0); c < 500; c++ {
		if c%2 == 0 {
			n.Send(n.NewPacket(node, dst, 1, router.KindData))
		}
		n.Step()
		in := -1
		for i, w := range windows {
			if fault.OutageActive(w, c) {
				in = i
			}
		}
		if o.down != (in >= 0) {
			t.Fatalf("cycle %d: port down = %v, want %v", c, o.down, in >= 0)
		}
		if in >= 0 {
			heldFlits[in] = max(heldFlits[in], o.flits.Len())
			heldCredits[in] = max(heldCredits[in], len(o.credits))
		}
	}
	for i, w := range windows {
		if heldFlits[i] == 0 || heldCredits[i] == 0 {
			t.Errorf("window [%d,%d): held at most %d flits and %d credits, want both > 0",
				w.From, w.Until, heldFlits[i], heldCredits[i])
		}
	}
	if _, ok := n.RunUntilQuiescent(10_000); !ok {
		t.Fatal("network did not drain after the outages")
	}
	if sent, arrived, _, _ := n.Stats(); sent != 250 || arrived != sent {
		t.Errorf("sent %d, arrived %d; want 250 of 250", sent, arrived)
	}
	if err := n.CheckConservation(); err != nil {
		t.Error(err)
	}
}
