package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkLatencies holds a Latencies built from xs to the float64 functions it
// replaces in the open-loop harness, bit for bit: Mean, Summarize's P95 and
// P99, and BatchMeansCI95 over ten batches, all on the float64 image of xs.
func checkLatencies(t *testing.T, xs []uint32) {
	t.Helper()
	var l Latencies
	fs := make([]float64, len(xs))
	for i, x := range xs {
		l.Add(int64(x))
		fs[i] = float64(x)
	}
	if l.Len() != len(xs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(xs))
	}
	want := Summarize(fs)
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: %s = %v (%#x), float64 path %v (%#x)",
				len(xs), name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	same("Mean", l.Mean(), want.Mean)
	same("Mean vs stats.Mean", l.Mean(), Mean(fs))
	same("BatchMeansCI95", l.BatchMeansCI95(10), BatchMeansCI95(fs, 10))
	q := l.Quantiles(0.95, 0.99, 0.5, 0, 1)
	same("P95", q[0], want.P95)
	same("P99", q[1], want.P99)
	same("median", q[2], want.Median)
	same("min", q[3], want.Min)
	same("max", q[4], want.Max)
	// A second reading finds the sample already sorted.
	same("P95 again", l.Quantiles(0.95)[0], want.P95)
}

func TestLatenciesMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Queueing-shaped data: a floor plus a heavy right tail.
	tail := func(n int) []uint32 {
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = 12 + uint32(rng.ExpFloat64()*40)
		}
		return xs
	}
	for _, n := range []int{0, 1, 2, 19, 20, 21, 100_003} {
		checkLatencies(t, tail(n))
	}
	equal := make([]uint32, 1000)
	for i := range equal {
		equal[i] = 37
	}
	checkLatencies(t, equal)
	ties := make([]uint32, 5000)
	for i := range ties {
		ties[i] = uint32(20 + rng.Intn(3))
	}
	checkLatencies(t, ties)
	big := tail(100_003)
	big[500] = math.MaxUint32
	checkLatencies(t, big)
	checkLatencies(t, []uint32{math.MaxUint32, 0, math.MaxUint32})
	for i := 0; i < 200; i++ {
		xs := make([]uint32, rng.Intn(400))
		shift := uint(rng.Intn(32))
		for j := range xs {
			xs[j] = rng.Uint32() >> shift
		}
		checkLatencies(t, xs)
	}
}

// The sample is closed once Quantiles has given up arrival order, and a
// latency the run's deadline cannot produce is a bug, not data.
func TestLatenciesMisusePanics(t *testing.T) {
	sorted := func() *Latencies {
		var l Latencies
		l.Add(3)
		l.Quantiles(0.5)
		return &l
	}
	for name, f := range map[string]func(){
		"negative":                       func() { new(Latencies).Add(-1) },
		"above MaxUint32":                func() { new(Latencies).Add(math.MaxUint32 + 1) },
		"Add after Quantiles":            func() { sorted().Add(1) },
		"BatchMeansCI95 after Quantiles": func() { sorted().BatchMeansCI95(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	var empty Latencies
	if q := empty.Quantiles(0.95, 0.99); q[0] != 0 || q[1] != 0 || empty.Mean() != 0 || empty.BatchMeansCI95(10) != 0 {
		t.Errorf("empty sample: quantiles %v, mean %v", q, empty.Mean())
	}
}

// FuzzLatencies is TestLatenciesMatchesSummarize over fuzzer-chosen samples:
// each four input bytes are one little-endian uint32 latency. The seed corpus
// (batch boundaries, ties, MaxUint32) is in testdata/fuzz/FuzzLatencies.
func FuzzLatencies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]uint32, len(data)/4)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkLatencies(t, xs)
	})
}
