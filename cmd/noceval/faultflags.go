package main

import (
	"flag"
	"fmt"

	"noceval/internal/fault"
)

// faultOpts gathers the fault-injection flags shared by the network
// subcommands. All flags default to "off"; build returns nil when none was
// given, so fault-free invocations produce the exact pre-fault parameter
// schema (and cache keys).
type faultOpts struct {
	corrupt  float64
	drop     float64
	outages  []fault.Outage
	kills    []fault.Kill
	timeout  int64
	retries  int
	retryCap int
	seed     uint64
}

// faultFlags registers the fault-injection flags on a subcommand's flag
// set.
func faultFlags(fs *flag.FlagSet) *faultOpts {
	o := &faultOpts{}
	fs.Float64Var(&o.corrupt, "fault-corrupt", 0, "per-link-traversal flit corruption probability")
	fs.Float64Var(&o.drop, "fault-drop", 0, "per-link-traversal packet drop probability (head flits)")
	fs.Func("fault-outage", "link outage window node:port:from:until (repeatable)", func(s string) error {
		var ot fault.Outage
		if _, err := fmt.Sscanf(s, "%d:%d:%d:%d", &ot.Node, &ot.Port, &ot.From, &ot.Until); err != nil {
			return fmt.Errorf("want node:port:from:until, got %q", s)
		}
		o.outages = append(o.outages, ot)
		return nil
	})
	fs.Func("fault-kill", "hard router kill node@cycle (repeatable)", func(s string) error {
		var k fault.Kill
		if _, err := fmt.Sscanf(s, "%d@%d", &k.Node, &k.At); err != nil {
			return fmt.Errorf("want node@cycle, got %q", s)
		}
		o.kills = append(o.kills, k)
		return nil
	})
	fs.Int64Var(&o.timeout, "fault-timeout", 0, "recovery NIC retransmission timeout in cycles (0 = no recovery)")
	fs.IntVar(&o.retries, "fault-retries", 0, "max retransmissions per packet before abandoning (0 = abandon at first timeout)")
	fs.IntVar(&o.retryCap, "fault-retry-cap", 0, "max concurrently retrying packets per node, MSHR-style (0 = unlimited)")
	fs.Uint64Var(&o.seed, "fault-seed", 0, "fault RNG seed (0 = derive from the network seed)")
	return o
}

// build materializes the fault parameters, or nil when every flag kept its
// default.
func (o *faultOpts) build() *fault.Params {
	p := &fault.Params{
		CorruptRate: o.corrupt,
		DropRate:    o.drop,
		Outages:     o.outages,
		Kills:       o.kills,
		Timeout:     o.timeout,
		MaxRetries:  o.retries,
		RetryCap:    o.retryCap,
		Seed:        o.seed,
	}
	if !p.Enabled() {
		return nil
	}
	return p
}
