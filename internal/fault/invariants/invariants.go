// Package invariants is the fault subsystem's correctness oracle: a set of
// whole-network conservation checks that must hold at any inter-cycle
// boundary of any run — fault-free or faulted, sequential or sharded. The
// property-based harness in this package's tests runs
// randomized fault configurations through every run mode and calls Check
// on the final network state; a violation means flits, packets, or credits
// were silently created or destroyed somewhere in the pipeline.
package invariants

import (
	"fmt"
	"strings"

	"noceval/internal/network"
)

// Check runs every invariant against the network's current state and
// returns an error describing all violations (nil when clean).
//
// The invariants:
//
//  1. Flit and packet conservation (network.CheckConservation): everything
//     injected is delivered, dead-dropped, or still inside, and at
//     quiescence every sent packet arrived, died, was discarded, or was a
//     duplicate.
//  2. Per-VC credit conservation (CheckCredits): for every live directed
//     link, the sender's available credits plus credits in flight back to
//     it plus flits occupying the channel and the downstream buffer equal
//     the configured buffer depth.
//  3. NIC no-silent-loss (CheckNIC): every packet the recovery NIC ever
//     tracked is acked, abandoned, or still outstanding — a retransmission
//     path that loses track of a packet cannot balance this.
func Check(n *network.Network) error {
	var errs []string
	if err := n.CheckConservation(); err != nil {
		errs = append(errs, err.Error())
	}
	if err := CheckCredits(n); err != nil {
		errs = append(errs, err.Error())
	}
	if err := CheckNIC(n); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("invariants: %s", strings.Join(errs, "; "))
}

// CheckCredits verifies per-VC credit conservation on every directed
// network link:
//
//	sender.OutCredits + credits in flight + flits in flight +
//	receiver.InBufLen == BufDepth
//
// Every credit is exactly one of: available at the sender, traveling back
// on a credit line, or held by a flit that is on the link's delay line (or
// held there by an outage) or in the downstream input buffer. Links whose sender was hard-killed are
// skipped — a killed router's credit state is deliberately forfeit (its
// counters are frozen and credits returned to it vanish); links INTO a
// dead router still conserve, because discarded deliveries bounce their
// credit, and are checked.
func CheckCredits(n *network.Network) error {
	cfg := n.Config()
	topo, depth, vcs := cfg.Topo, cfg.Router.BufDepth, cfg.Router.VCs
	flits, credits := n.InFlightByVC()
	for node := 0; node < topo.N; node++ {
		from := n.Router(node)
		if from.Dead() {
			continue
		}
		for port := 0; port < topo.Radix; port++ {
			link := topo.LinkAt(node, port)
			if !link.Connected() {
				continue
			}
			to := n.Router(link.To)
			for vc := 0; vc < vcs; vc++ {
				avail := from.OutCredits(port, vc)
				i := (node*topo.Ports()+port)*vcs + vc
				inFlight, pipe := credits[i], flits[i]
				buf := 0
				if !to.Dead() { // a killed receiver's buffers were purged with credit bounce
					buf = to.InBufLen(link.ToPort, vc)
				}
				if got := avail + inFlight + pipe + buf; got != depth {
					return fmt.Errorf(
						"credit conservation violated on link %d.%d->%d.%d vc %d: %d avail + %d in-flight + %d in-pipe + %d buffered = %d, want %d",
						node, port, link.To, link.ToPort, vc, avail, inFlight, pipe, buf, got, depth)
				}
			}
		}
	}
	return nil
}

// CheckNIC verifies the recovery NIC's transaction ledger: tracked ==
// acked + abandoned + outstanding. Trivially nil without a NIC.
func CheckNIC(n *network.Network) error {
	fs := n.FaultStats()
	if fs == nil || fs.Tracked == 0 {
		return nil
	}
	if fs.Tracked != fs.Acked+fs.Abandoned+int64(fs.Outstanding) {
		return fmt.Errorf(
			"NIC conservation violated: tracked %d != acked %d + abandoned %d + outstanding %d (a packet was silently lost by the retransmission path)",
			fs.Tracked, fs.Acked, fs.Abandoned, fs.Outstanding)
	}
	return nil
}
