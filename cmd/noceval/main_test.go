package main

import (
	"testing"

	"noceval/internal/closedloop"
)

func TestParseReply(t *testing.T) {
	m, err := parseReply("")
	if err != nil || m != nil {
		t.Errorf("empty spec: %v, %v", m, err)
	}
	m, err = parseReply("fixed:25")
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := m.(closedloop.FixedReply); !ok || f.Latency != 25 {
		t.Errorf("fixed spec parsed to %#v", m)
	}
	m, err = parseReply("prob:20:300:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := m.(closedloop.ProbabilisticReply); !ok || p.L2Latency != 20 || p.MemoryLatency != 300 || p.MissRate != 0.1 {
		t.Errorf("prob spec parsed to %#v", m)
	}
	for _, bad := range []string{"fixed", "fixed:x", "prob:1:2", "prob:a:b:c", "magic:1"} {
		if _, err := parseReply(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestSweepRates(t *testing.T) {
	cases := []struct {
		step, hi float64
		n        int
		last     float64
	}{
		{0.02, 0.5, 25, 0.5}, // accumulating 0.02 ends at 0.48000000000000015
		{0.1, 0.3, 3, 0.3},
		{0.05, 0.5, 10, 0.5},
		{0.2, 0.5, 2, 0.4},
		{0.5, 0.1, 0, 0},
		{0, 0.5, 0, 0},
	}
	for _, tc := range cases {
		got := sweepRates(tc.step, tc.hi)
		if len(got) != tc.n || (tc.n > 0 && got[tc.n-1] != tc.last) {
			t.Errorf("sweepRates(%g, %g) = %v, want %d rates ending at exactly %g", tc.step, tc.hi, got, tc.n, tc.last)
		}
	}
	if got := sweepRates(0.02, 0.5); got[2] != 0.06 {
		t.Errorf("third rate = %v, want the canonical 0.06", got[2])
	}
}
