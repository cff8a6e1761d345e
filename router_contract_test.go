package noceval

import (
	"testing"

	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
)

// TestStandaloneRouterTiming pins the contract of a router outside a
// network, the one the repo benchmark's router layer drives through
// AcceptFlit, Step, PopDelivery and ReturnCredit: a flit switched in cycle c
// comes out of PopDelivery at c+tr on the ejection port and at
// c+tr+linkDelay on a link port, never earlier, and a credit handed back in
// cycle c is usable from Step(c+linkDelay+1), never earlier.
func TestStandaloneRouterTiming(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	const id, dst = 5, 6 // the east neighbour
	east, west := -1, -1
	for p := 0; p < topo.Radix; p++ {
		switch topo.LinkAt(id, p).To {
		case dst:
			east = p
		case 4:
			west = p
		}
	}
	local, link := topo.LocalPort(), topo.LinkAt(id, east)
	for _, tr := range []int64{1, 2, 4} {
		// One VC of one slot: the east output VC has a single credit.
		r := router.New(id, topo, routing.DOR{}, router.Config{VCs: 1, BufDepth: 1, Delay: tr})
		next := uint64(0)
		flit := func(to int) router.Flit {
			next++
			return router.Flit{P: &router.Packet{ID: next, Src: id, Dst: to, Size: 1, Route: routing.NewState(-1)}}
		}
		r.AcceptFlit(local, 0, flit(dst)) // A: switched east in cycle 0
		r.AcceptFlit(west, 0, flit(id))   // C: switched to the terminal in cycle 0
		r.Step(0)
		if r.PortFlits(east) != 1 || r.PortFlits(local) != 1 || r.OutCredits(east, 0) != 0 {
			t.Fatalf("tr=%d: cycle 0 forwarded %d east, %d to the terminal, %d east credits left; want 1, 1, 0",
				tr, r.PortFlits(east), r.PortFlits(local), r.OutCredits(east, 0))
		}
		r.AcceptFlit(local, 0, flit(dst)) // B: waits for A's credit
		ejectAt, linkAt, creditAt := tr, tr+link.Delay, int64(-1)
		for now := int64(1); now <= 2*tr+3*link.Delay+3; now++ {
			if f, ok := r.PopDelivery(now, local); ok != (now == ejectAt) || ok && f.P.Dst != id {
				t.Fatalf("tr=%d: ejection port delivered %v at cycle %d, want the terminal's flit at %d", tr, ok, now, ejectAt)
			}
			// A leaves at linkAt; B, switched at creditAt, tr+linkDelay later.
			want := uint64(0)
			switch {
			case now == linkAt:
				want = 1
			case creditAt >= 0 && now == creditAt+tr+link.Delay:
				want = 3
			}
			if f, ok := r.PopDelivery(now, east); ok != (want != 0) || ok && f.P.ID != want {
				t.Fatalf("tr=%d: east port delivered %v at cycle %d, want packet %d (A at %d, B at %d)",
					tr, ok, now, want, linkAt, creditAt+tr+link.Delay)
			}
			if now == linkAt { // the neighbour frees A's slot at once
				r.ReturnCredit(now, east, 0)
				creditAt = now + link.Delay + 1
			}
			r.Step(now)
			if got, want := r.PortFlits(east), int64(1); creditAt >= 0 && now >= creditAt {
				want = 2
				if got != want {
					t.Fatalf("tr=%d: %d flits east after Step(%d), want B forwarded on the credit returned at %d", tr, got, now, linkAt)
				}
			} else if got != want {
				t.Fatalf("tr=%d: B forwarded east by Step(%d), before its credit (returned at %d) was usable", tr, now, linkAt)
			}
		}
	}
}
