package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's high-water resident set (ru_maxrss is
// KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spread summarizes repeated measurements of one quantity. Host-time
// metrics report Median (README, "Statistics", says why not the minimum);
// the quartiles ride along for -compare's "unresolved" call.
type spread struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return spread{}
	}
	return spread{N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// quantile interpolates linearly in a sorted sample. The benchmark keeps
// its own statistics: the program under test must not define how it is
// measured.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// percentileMS returns the q-th percentile of latencies, in milliseconds.
func percentileMS(lat []time.Duration, q float64) float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

// timeOp calls fn(n) repeatedly until budget has elapsed (at least three
// times) and returns the fastest call's nanoseconds per operation.
func timeOp(budget time.Duration, n int, fn func(n int)) float64 {
	best := 0.0
	start := time.Now()
	for calls := 0; calls < 3 || time.Since(start) < budget; calls++ {
		t0 := time.Now()
		fn(n)
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// spinSink keeps the calibration loop's result live.
var spinSink uint64

// hostSpin times a fixed arithmetic loop (about 50 ms on the reference
// host); run before and after a workload, the ratio of the two readings is
// the host's own speed drift over that window.
func hostSpin() float64 {
	best := 0.0
	for try := 0; try < 2; try++ { // the faster of two: the first warms the core up
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 30_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		if d := time.Since(t0).Seconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// allocDelta returns mallocs and bytes allocated while fn ran.
func allocDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
