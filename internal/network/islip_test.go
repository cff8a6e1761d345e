package network

import (
	"testing"

	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
)

// TestISLIPConservation drives a torus under ROMM with multi-flit packets
// near saturation — the scenario that once exercised multi-pass switch
// allocation — and requires every packet sent to arrive.
func TestISLIPConservation(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	n := New(Config{
		Topo:    topo,
		Routing: routing.ROMM{},
		Router:  router.Config{VCs: 4, BufDepth: 2, Delay: 2},
		Seed:    56,
	})
	rng := n.RNG()
	sent, arrived := 0, 0
	n.OnReceive = func(now int64, p *router.Packet) { arrived++ }
	for c := 0; c < 2000; c++ {
		for node := 0; node < topo.N; node++ {
			if rng.Bernoulli(0.5) {
				n.Send(n.NewPacket(node, rng.Intn(topo.N), 1+rng.Intn(4), router.KindData))
				sent++
			}
		}
		n.Step()
	}
	if _, ok := n.RunUntilQuiescent(1000000); !ok {
		t.Fatal("network did not drain")
	}
	if arrived != sent {
		t.Errorf("arrived %d, sent %d", arrived, sent)
	}
	if err := n.CheckConservation(); err != nil {
		t.Error(err)
	}
}
