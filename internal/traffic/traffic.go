// Package traffic implements the synthetic spatial traffic patterns and
// packet-length processes of Table I: uniform random, transpose, bit
// complement, and bit reversal destinations, plus several classic extras
// (shuffle, tornado, neighbor) useful for design-space exploration; and
// single-flit or bimodal (1-flit/4-flit) packet sizes.
package traffic

import (
	"fmt"
	"math/bits"

	"noceval/internal/sim"
)

// Pattern maps a source node to a destination node. Implementations must be
// safe for concurrent use when they are stateless; stateful patterns (none
// currently) must document otherwise.
type Pattern interface {
	// Name returns the pattern's short identifier, e.g. "uniform".
	Name() string
	// Dest returns the destination for one packet injected at src in a
	// network of n nodes. rng supplies randomness for stochastic patterns;
	// deterministic permutations ignore it.
	Dest(rng *sim.RNG, src, n int) int
}

// Weighted is the analytic-model view of a pattern: the full destination
// distribution rather than one sampled destination. Every built-in pattern
// implements it; the analytic package type-asserts for it so that unknown
// stochastic patterns are rejected structurally instead of being silently
// mis-modeled as permutations.
type Weighted interface {
	Pattern
	// DestWeights returns w where w[d] is the probability that a packet
	// injected at src in a network of n nodes targets node d. The returned
	// slice has length n and sums to 1; callers must not mutate it beyond
	// their own copy.
	DestWeights(src, n int) []float64
}

// onehot returns a distribution putting all weight on d.
func onehot(d, n int) []float64 {
	w := make([]float64, n)
	w[d] = 1
	return w
}

// Uniform is uniform-random traffic: every node, including the source
// itself, is an equally likely destination (the Dally & Towles convention).
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (Uniform) Dest(rng *sim.RNG, src, n int) int { return rng.Intn(n) }

// DestWeights implements Weighted.
func (Uniform) DestWeights(_, n int) []float64 {
	w := make([]float64, n)
	for d := range w {
		w[d] = 1 / float64(n)
	}
	return w
}

// UniformNoSelf is uniform-random traffic that never picks the source as
// destination; request/reply workloads use it so every transaction crosses
// the network.
type UniformNoSelf struct{}

// Name implements Pattern.
func (UniformNoSelf) Name() string { return "uniform-noself" }

// Dest implements Pattern.
func (UniformNoSelf) Dest(rng *sim.RNG, src, n int) int {
	if n < 2 {
		return src
	}
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// DestWeights implements Weighted.
func (UniformNoSelf) DestWeights(src, n int) []float64 {
	if n < 2 {
		return onehot(src, n)
	}
	w := make([]float64, n)
	for d := range w {
		if d != src {
			w[d] = 1 / float64(n-1)
		}
	}
	return w
}

// Transpose sends from node (x, y) to node (y, x) on a square network:
// with b address bits, the upper and lower halves of the node index are
// swapped. n must be a power of four.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (Transpose) Dest(_ *sim.RNG, src, n int) int {
	b := log2(n)
	half := b / 2
	mask := (1 << half) - 1
	return (src>>half)&mask | (src&mask)<<half
}

// DestWeights implements Weighted.
func (p Transpose) DestWeights(src, n int) []float64 { return onehot(p.Dest(nil, src, n), n) }

// BitComplement sends from node a to node ~a (mod n). n must be a power of
// two.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomp" }

// Dest implements Pattern.
func (BitComplement) Dest(_ *sim.RNG, src, n int) int {
	log2(n) // validate the node count
	return ^src & (n - 1)
}

// DestWeights implements Weighted.
func (p BitComplement) DestWeights(src, n int) []float64 { return onehot(p.Dest(nil, src, n), n) }

// BitReversal sends from node a to the node whose index has a's bits in
// reverse order. n must be a power of two.
type BitReversal struct{}

// Name implements Pattern.
func (BitReversal) Name() string { return "bitrev" }

// Dest implements Pattern.
func (BitReversal) Dest(_ *sim.RNG, src, n int) int {
	b := log2(n)
	return int(bits.Reverse64(uint64(src)) >> (64 - b))
}

// DestWeights implements Weighted.
func (p BitReversal) DestWeights(src, n int) []float64 { return onehot(p.Dest(nil, src, n), n) }

// Shuffle sends from node a to the node obtained by rotating a's bits left
// by one. n must be a power of two.
type Shuffle struct{}

// Name implements Pattern.
func (Shuffle) Name() string { return "shuffle" }

// Dest implements Pattern.
func (Shuffle) Dest(_ *sim.RNG, src, n int) int {
	b := log2(n)
	return (src<<1 | src>>(b-1)) & (n - 1)
}

// DestWeights implements Weighted.
func (p Shuffle) DestWeights(src, n int) []float64 { return onehot(p.Dest(nil, src, n), n) }

// Tornado sends halfway around each dimension of a kxk square network:
// (x, y) -> (x + ceil(k/2) - 1 mod k, y). It is the classic adversarial
// pattern for rings and tori.
type Tornado struct{}

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Dest implements Pattern.
func (Tornado) Dest(_ *sim.RNG, src, n int) int {
	k := isqrt(n)
	x, y := src%k, src/k
	x = (x + (k+1)/2 - 1) % k
	return y*k + x
}

// DestWeights implements Weighted.
func (p Tornado) DestWeights(src, n int) []float64 { return onehot(p.Dest(nil, src, n), n) }

// Neighbor sends one hop in the +x direction with wraparound on a kxk
// square network, the best case for any topology.
type Neighbor struct{}

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (Neighbor) Dest(_ *sim.RNG, src, n int) int {
	k := isqrt(n)
	x, y := src%k, src/k
	x = (x + 1) % k
	return y*k + x
}

// DestWeights implements Weighted.
func (p Neighbor) DestWeights(src, n int) []float64 { return onehot(p.Dest(nil, src, n), n) }

// Permutation wraps a fixed destination table as a Pattern, used for
// replaying measured communication matrices.
type Permutation struct {
	Label string
	Table []int
}

// Name implements Pattern.
func (p *Permutation) Name() string { return p.Label }

// Dest implements Pattern.
func (p *Permutation) Dest(_ *sim.RNG, src, n int) int { return p.Table[src] }

// DestWeights implements Weighted.
func (p *Permutation) DestWeights(src, n int) []float64 { return onehot(p.Table[src], n) }

// ByName returns the built-in pattern with the given name.
func ByName(name string) (Pattern, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "uniform-noself":
		return UniformNoSelf{}, nil
	case "transpose":
		return Transpose{}, nil
	case "bitcomp":
		return BitComplement{}, nil
	case "bitrev":
		return BitReversal{}, nil
	case "shuffle":
		return Shuffle{}, nil
	case "tornado":
		return Tornado{}, nil
	case "neighbor":
		return Neighbor{}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// log2 returns floor(log2(n)); it panics unless n is a positive power of
// two, since the bit-permutation patterns are only defined there.
func log2(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("traffic: pattern requires power-of-two node count, got %d", n))
	}
	return bits.TrailingZeros64(uint64(n))
}

// isqrt returns the integer square root of n; it panics unless n is a
// perfect square, since the 2D patterns are only defined on square networks.
func isqrt(n int) int {
	k := 0
	for k*k < n {
		k++
	}
	if k*k != n {
		panic(fmt.Sprintf("traffic: pattern requires square node count, got %d", n))
	}
	return k
}

// SizeDist draws packet lengths in flits.
type SizeDist interface {
	// Name returns the distribution's short identifier.
	Name() string
	// Sample returns one packet length in flits (>= 1).
	Sample(rng *sim.RNG) int
	// Mean returns the expected packet length in flits.
	Mean() float64
}

// FixedSize always returns the same packet length.
type FixedSize int

// Name implements SizeDist.
func (f FixedSize) Name() string { return fmt.Sprintf("fixed%d", int(f)) }

// Sample implements SizeDist.
func (f FixedSize) Sample(_ *sim.RNG) int { return int(f) }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f) }

// MeanSquare returns E[L²] for the queueing estimator's service-time
// variance (see internal/analytic).
func (f FixedSize) MeanSquare() float64 { return float64(f) * float64(f) }

// Bimodal mixes two packet lengths, the paper's "1 flit and 4 flit" mix:
// short control packets and long data packets.
type Bimodal struct {
	Short, Long int
	// PShort is the probability of drawing the short length.
	PShort float64
}

// DefaultBimodal is the paper's packet mix: half 1-flit, half 4-flit.
func DefaultBimodal() Bimodal { return Bimodal{Short: 1, Long: 4, PShort: 0.5} }

// Name implements SizeDist.
func (b Bimodal) Name() string {
	return fmt.Sprintf("bimodal%d/%d", b.Short, b.Long)
}

// Sample implements SizeDist.
func (b Bimodal) Sample(rng *sim.RNG) int {
	if rng.Bernoulli(b.PShort) {
		return b.Short
	}
	return b.Long
}

// Mean implements SizeDist.
func (b Bimodal) Mean() float64 {
	return b.PShort*float64(b.Short) + (1-b.PShort)*float64(b.Long)
}

// MeanSquare returns E[L²] for the queueing estimator's service-time
// variance (see internal/analytic).
func (b Bimodal) MeanSquare() float64 {
	return b.PShort*float64(b.Short)*float64(b.Short) + (1-b.PShort)*float64(b.Long)*float64(b.Long)
}

// Hotspot sends a fraction of traffic to one hot node and the rest
// uniformly: the classic memory-controller / accelerator contention
// pattern.
type Hotspot struct {
	// Hot is the hotspot node index.
	Hot int
	// Fraction of packets targeting the hotspot (the rest are uniform).
	Fraction float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot%d@%.2f", h.Hot, h.Fraction) }

// Dest implements Pattern.
func (h Hotspot) Dest(rng *sim.RNG, src, n int) int {
	if rng.Bernoulli(h.Fraction) {
		return h.Hot % n
	}
	return rng.Intn(n)
}

// DestWeights implements Weighted.
func (h Hotspot) DestWeights(_, n int) []float64 {
	w := make([]float64, n)
	for d := range w {
		w[d] = (1 - h.Fraction) / float64(n)
	}
	w[h.Hot%n] += h.Fraction
	return w
}

// Class describes one QoS traffic class of a multi-class mix: its own
// spatial pattern, its share of the total offered load, and its own packet
// size distribution. Priority is positional — class 0 of a mix is the
// highest priority.
type Class struct {
	// Name labels the class in results, figures and ledger records.
	Name string
	// Share is the class's fraction of the total offered load, in (0, 1].
	// Shares of a mix sum to 1.
	Share float64
	// Pattern maps sources to destinations for this class's packets.
	Pattern Pattern
	// Sizes draws this class's packet lengths.
	Sizes SizeDist
}

// ValidateClasses checks a class mix: at least one class, positive shares
// summing to 1 (within floating-point slack), non-nil pattern and sizes,
// and unique names.
func ValidateClasses(classes []Class) error {
	if len(classes) == 0 {
		return fmt.Errorf("traffic: class mix is empty")
	}
	seen := make(map[string]bool, len(classes))
	var sum float64
	for i, c := range classes {
		if c.Name == "" {
			return fmt.Errorf("traffic: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Share <= 0 || c.Share > 1 {
			return fmt.Errorf("traffic: class %q share %g outside (0, 1]", c.Name, c.Share)
		}
		if c.Pattern == nil {
			return fmt.Errorf("traffic: class %q has no pattern", c.Name)
		}
		if c.Sizes == nil {
			return fmt.Errorf("traffic: class %q has no size distribution", c.Name)
		}
		sum += c.Share
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("traffic: class shares sum to %g, want 1", sum)
	}
	return nil
}
