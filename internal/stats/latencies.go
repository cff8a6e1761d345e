package stats

import (
	"encoding/binary"
	"math"
	"slices"
)

// Latencies is an exact sample of packet latencies in whole cycles. It
// stores each observation once, in arrival order, as an unsigned varint
// (one byte below 128 cycles, two below 16384, at most five), beside a
// count and an int64 running sum: about a byte a packet where a []float64
// handed to Summarize costs sixteen (the slice plus the copy Summarize
// sorts).
//
// Its statistics are bit-identical to Mean, BatchMeansCI95 and Summarize's
// percentiles on the float64 images of the same data, as long as the sum
// stays below 2^53: sums of integers that small are exact in float64 in
// any order, and Quantiles selects the same order statistics a sort would
// put at the ranks Quantile reads. Nothing is reordered in place, so every
// method may be called at any time, in any order.
//
// The zero value is an empty sample.
type Latencies struct {
	buf []byte // one uvarint per observation, in arrival order
	n   int
	sum int64
}

// Grow makes room for n further bytes of observations — n observations
// below 128 cycles — without reallocating.
func (l *Latencies) Grow(n int) { l.buf = slices.Grow(l.buf, n) }

// Add records one latency. It panics on a value outside [0, MaxUint32]:
// callers bound the run length so that no latency can be (see
// openloop.CheckPhases).
func (l *Latencies) Add(cycles int64) {
	if cycles < 0 || cycles > math.MaxUint32 {
		panic("stats: latency outside [0, MaxUint32]")
	}
	l.buf = binary.AppendUvarint(l.buf, uint64(cycles))
	l.n++
	l.sum += cycles
}

// Len returns the number of observations.
func (l *Latencies) Len() int { return l.n }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (l *Latencies) Mean() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.n)
}

// BatchMeansCI95 is the package-level BatchMeansCI95 over the observations
// in arrival order. It decodes the stream once: batchMeansCI95 asks for its
// batches in order, each starting where the last one ended.
func (l *Latencies) BatchMeansCI95(batches int) float64 {
	i := 0 // stream offset of the next batch's first observation
	return batchMeansCI95(l.n, batches, func(lo, hi int) float64 {
		var sum int64
		for k := lo; k < hi; k++ {
			var x uint32
			x, i = uvarint(l.buf, i)
			sum += int64(x)
		}
		return float64(sum) / float64(hi-lo)
	})
}

// Quantiles returns the q-quantile of the sample for each q, by Quantile's
// interpolation; all zero for an empty sample, like Summarize. It reads
// only the order statistics that interpolation needs, found by radix
// selection over the stream (see orderStats); the sample is left as it was.
func (l *Latencies) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if l.n == 0 {
		return out
	}
	// A first pass of the interpolation records the ranks it reads, which
	// depend on n and q only; the second reads the selected values.
	var ranks []int
	for _, q := range qs {
		quantileAt(l.n, q, func(r int) float64 {
			ranks = append(ranks, r)
			return 0
		})
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	vals := l.orderStats(ranks)
	for i, q := range qs {
		out[i] = quantileAt(l.n, q, func(r int) float64 {
			k, _ := slices.BinarySearch(ranks, r)
			return float64(vals[k])
		})
	}
	return out
}

// radixDigits splits a 32-bit value into the three digits orderStats
// selects by, most significant first.
var radixDigits = [...]struct{ shift, width uint }{{21, 11}, {10, 11}, {0, 10}}

// orderStats returns the value of rank r (0-based, ascending) for each of
// the ascending, distinct ranks, by most-significant-digit radix
// selection: each digit is one scan of the stream that counts the values
// sharing a rank's known high digits by their next digit, and the counts
// narrow the rank to one bucket. Ranks whose high digits agree share a
// scan — ascending ranks have ascending values, so they are adjacent — and
// the only memory is one 2^11-entry count table.
func (l *Latencies) orderStats(ranks []int) []uint32 {
	prefix := make([]uint32, len(ranks)) // each rank's digits found so far
	rest := slices.Clone(ranks)          // its rank among the values sharing them
	counts := make([]int, 1<<radixDigits[0].width)
	for _, d := range radixDigits {
		above, mask := d.shift+d.width, uint32(1)<<d.width-1
		for g := 0; g < len(ranks); {
			p := prefix[g]
			end := g + 1
			for end < len(ranks) && prefix[end] == p {
				end++
			}
			clear(counts)
			for i := 0; i < len(l.buf); {
				var x uint32
				x, i = uvarint(l.buf, i)
				if x>>above == p {
					counts[x>>d.shift&mask]++
				}
			}
			for k := g; k < end; k++ {
				b := 0
				for rest[k] >= counts[b] {
					rest[k] -= counts[b]
					b++
				}
				prefix[k] = p<<d.width | uint32(b)
			}
			g = end
		}
	}
	return prefix
}

// uvarint decodes the observation that starts at buf[i] and returns it
// with the offset of the next one.
func uvarint(buf []byte, i int) (uint32, int) {
	var x uint32
	for s := uint(0); ; s += 7 {
		b := buf[i]
		i++
		x |= uint32(b&0x7f) << s
		if b < 0x80 {
			return x, i
		}
	}
}
