package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refLatencies is the sample Latencies replaced, kept as its reference: a
// []uint32 in arrival order beside the int64 sum, sorted for percentiles.
type refLatencies struct {
	xs  []uint32
	sum int64
}

func (r *refLatencies) mean() float64 {
	if len(r.xs) == 0 {
		return 0
	}
	return float64(r.sum) / float64(len(r.xs))
}

func (r *refLatencies) batchMeansCI95(batches int) float64 {
	return batchMeansCI95(len(r.xs), batches, func(lo, hi int) float64 {
		var sum int64
		for _, x := range r.xs[lo:hi] {
			sum += int64(x)
		}
		return float64(sum) / float64(hi-lo)
	})
}

func (r *refLatencies) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(r.xs) == 0 {
		return out
	}
	sorted := slices.Clone(r.xs)
	slices.Sort(sorted)
	for i, q := range qs {
		out[i] = quantileAt(len(sorted), q, func(k int) float64 { return float64(sorted[k]) })
	}
	return out
}

// checkQs are the quantiles every check reads: the ends, one just above
// the first rank, the median and the two the open-loop harness reports.
var checkQs = []float64{0, 1e-9, 0.5, 0.95, 0.99, 1}

// checkLatencies holds a Latencies built from xs to the reference sample,
// bit for bit — Len, Mean, BatchMeansCI95 over 2 to 20 batches and
// Quantiles at checkQs — and both to the float64 functions they replace in
// the open-loop harness: Mean, Summarize's P95 and P99, and BatchMeansCI95
// over ten batches, on the float64 image of xs.
func checkLatencies(t *testing.T, xs []uint32) {
	t.Helper()
	var l Latencies
	ref := refLatencies{xs: xs}
	fs := make([]float64, len(xs))
	for i, x := range xs {
		l.Add(int64(x))
		ref.sum += int64(x)
		fs[i] = float64(x)
	}
	if l.Len() != len(xs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(xs))
	}
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: %s = %v (%#x), want %v (%#x)",
				len(xs), name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	same("Mean", l.Mean(), ref.mean())
	for b := 2; b <= 20; b++ {
		same("BatchMeansCI95", l.BatchMeansCI95(b), ref.batchMeansCI95(b))
	}
	got, want := l.Quantiles(checkQs...), ref.quantiles(checkQs...)
	for i, q := range checkQs {
		same(fmt.Sprintf("Quantile(%v)", q), got[i], want[i])
	}
	// A second reading, and a reading out of order, select the same values.
	same("P95 again", l.Quantiles(0.95)[0], want[3])
	rev := l.Quantiles(1, 0.99, 0.5)
	same("max reversed", rev[0], want[5])
	same("P99 reversed", rev[1], want[4])

	sum := Summarize(fs)
	same("Mean vs Summarize", l.Mean(), sum.Mean)
	same("Mean vs stats.Mean", l.Mean(), Mean(fs))
	same("BatchMeansCI95 vs float64", l.BatchMeansCI95(10), BatchMeansCI95(fs, 10))
	q := l.Quantiles(0.95, 0.99)
	same("P95 vs Summarize", q[0], sum.P95)
	same("P99 vs Summarize", q[1], sum.P99)
}

// varintEdges are the values on each side of every uvarint length change.
var varintEdges = []uint32{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21,
	1<<28 - 1, 1 << 28, math.MaxUint32 - 1, math.MaxUint32}

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
	for _, n := range []int{0, 1, 2, 3, 19, 20, 21, 39, 40, 41, 100_003} {
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
	// The varint boundaries alone, each pair of them, and scattered through
	// a tail in arrival order.
	checkLatencies(t, varintEdges)
	for _, a := range varintEdges {
		checkLatencies(t, []uint32{a})
		for _, b := range varintEdges {
			checkLatencies(t, []uint32{a, b})
		}
	}
	mixed := tail(4000)
	for i := range mixed {
		if i%7 == 0 {
			mixed[i] = varintEdges[rng.Intn(len(varintEdges))]
		}
	}
	checkLatencies(t, mixed)
	for i := 0; i < 200; i++ {
		xs := make([]uint32, rng.Intn(400))
		shift := uint(rng.Intn(32))
		for j := range xs {
			xs[j] = rng.Uint32() >> shift
		}
		checkLatencies(t, xs)
	}
}

// Nothing is reordered in place, so the sample stays open after Quantiles:
// Add and BatchMeansCI95 then read what a fresh sample of the same values
// reads. A latency the run's deadline cannot produce is a bug, not data.
func TestLatenciesMisusePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative":        func() { new(Latencies).Add(-1) },
		"above MaxUint32": func() { new(Latencies).Add(math.MaxUint32 + 1) },
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
	var read, fresh Latencies
	for i := int64(0); i < 100; i++ {
		read.Add(3 * (100 - i) % 37)
		fresh.Add(3 * (100 - i) % 37)
	}
	read.Quantiles(0.5)
	read.Add(200)
	fresh.Add(200)
	if a, b := read.BatchMeansCI95(10), fresh.BatchMeansCI95(10); a != b || a == 0 {
		t.Errorf("BatchMeansCI95 after Quantiles = %v, fresh sample %v", a, b)
	}
	if a, b := read.Quantiles(checkQs...), fresh.Quantiles(checkQs...); !slices.Equal(a, b) {
		t.Errorf("Quantiles after Add = %v, fresh sample %v", a, b)
	}
	var empty Latencies
	if q := empty.Quantiles(0.95, 0.99); q[0] != 0 || q[1] != 0 || empty.Mean() != 0 || empty.BatchMeansCI95(10) != 0 {
		t.Errorf("empty sample: quantiles %v, mean %v", q, empty.Mean())
	}
}

// TestLatenciesQuantilesAllocation bounds what Quantiles allocates on a
// million-sample stream: the count table and a few rank slices, never a
// decoded copy of the sample (4 MB as []uint32) to sort.
func TestLatenciesQuantilesAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var l Latencies
	for i := 0; i < 1_000_000; i++ {
		l.Add(int64(12 + rng.ExpFloat64()*40))
	}
	l.Add(math.MaxUint32) // one value in every digit of the selection
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.Quantiles(0.95, 0.99, 0.5)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("Quantiles allocated %d B on a %d-sample stream, want <= 64 KiB", got, l.Len())
	}
}

// FuzzLatencies is TestLatenciesMatchesSummarize over fuzzer-chosen samples:
// each four input bytes are one little-endian uint32 latency. The seed corpus
// (batch boundaries, ties, MaxUint32) is in testdata/fuzz/FuzzLatencies.
func FuzzLatencies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, math.MaxUint32))
	edges := []byte{}
	for _, x := range varintEdges {
		edges = binary.LittleEndian.AppendUint32(edges, x)
	}
	f.Add(edges)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]uint32, len(data)/4)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkLatencies(t, xs)
	})
}
