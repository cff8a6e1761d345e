package openloop

import (
	"testing"

	"noceval/internal/traffic"
)

func TestHotspotSaturatesEarly(t *testing.T) {
	// Concentrating 25% of traffic on one node caps throughput at about
	// 4x the ejection bandwidth of that node: far below uniform capacity.
	cfg := quick(Config{Net: meshConfig(1, 16), Rate: 0.3, Seed: 32})
	cfg.Pattern = traffic.Hotspot{Hot: 27, Fraction: 0.25}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// theta_max ~ 1 / (0.25 * 64) per node ~= 0.0625 plus the uniform
	// share; 0.3 offered must be unstable.
	if res.Stable {
		t.Errorf("hotspot at 0.3 offered reported stable (accepted %.3f)", res.Accepted)
	}
	low := quick(Config{Net: meshConfig(1, 16), Rate: 0.03, Seed: 32})
	low.Pattern = traffic.Hotspot{Hot: 27, Fraction: 0.25}
	lres, err := Run(low)
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Stable {
		t.Error("hotspot at 0.03 offered should be stable")
	}
}

func TestLatencyCIShrinksWithMeasurement(t *testing.T) {
	short := Config{Net: meshConfig(1, 16), Rate: 0.2, Seed: 33, Warmup: 1000, Measure: 1500, DrainLimit: 20000}
	long := short
	long.Measure = 12000
	s, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if s.LatencyCI95 <= 0 || l.LatencyCI95 <= 0 {
		t.Fatalf("CIs not positive: %v, %v", s.LatencyCI95, l.LatencyCI95)
	}
	if l.LatencyCI95 >= s.LatencyCI95 {
		t.Errorf("CI did not shrink with longer measurement: %.3f -> %.3f", s.LatencyCI95, l.LatencyCI95)
	}
}
