package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples outside
// the range are clamped into the first/last bin so that total counts are
// conserved (the paper's Fig 11 histograms count 100% of nodes).
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram returns a histogram with the given number of bins over
// [lo, hi). It panics when bins < 1 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: NewHistogram with bins < 1")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	i := int(math.Floor((x - h.Lo) / (h.Hi - h.Lo) * float64(bins)))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
	h.total++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// BinWidth returns the width of one bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// Fractions returns each bin's share of the total, or all zeros when empty.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// String renders the histogram as an ASCII bar chart, one bin per line,
// scaled so the fullest bin spans 40 characters.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := int64(1)
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	fr := h.Fractions()
	for i, c := range h.Counts {
		bar := strings.Repeat("#", int(40*c/maxC))
		fmt.Fprintf(&b, "%10.2f..%-10.2f %6.1f%% %s\n",
			h.Lo+float64(i)*h.BinWidth(), h.Lo+float64(i+1)*h.BinWidth(), 100*fr[i], bar)
	}
	return b.String()
}

// Heatmap is a dense 2D grid of float64 values used for per-node runtime
// maps (Fig 7) and source/destination traffic matrices (Fig 13).
type Heatmap struct {
	Rows, Cols int
	Cells      []float64
}

// NewHeatmap returns a rows x cols heatmap of zeros. It panics on
// non-positive dimensions.
func NewHeatmap(rows, cols int) *Heatmap {
	if rows < 1 || cols < 1 {
		panic("stats: NewHeatmap with non-positive dimensions")
	}
	return &Heatmap{Rows: rows, Cols: cols, Cells: make([]float64, rows*cols)}
}

// At returns the value at (r, c).
func (m *Heatmap) At(r, c int) float64 { return m.Cells[r*m.Cols+c] }

// Set stores v at (r, c).
func (m *Heatmap) Set(r, c int, v float64) { m.Cells[r*m.Cols+c] = v }

// Addf adds v to the cell at (r, c).
func (m *Heatmap) Addf(r, c int, v float64) { m.Cells[r*m.Cols+c] += v }

// MaxValue returns the largest cell value, or 0 for an all-zero map.
func (m *Heatmap) MaxValue() float64 { return Max(m.Cells) }

// Normalized returns a copy of the heatmap scaled so its maximum is 1.
// An all-zero map is returned unchanged.
func (m *Heatmap) Normalized() *Heatmap {
	out := NewHeatmap(m.Rows, m.Cols)
	mx := m.MaxValue()
	if mx == 0 {
		return out
	}
	for i, v := range m.Cells {
		out.Cells[i] = v / mx
	}
	return out
}

// shades orders glyphs from light to dark for ASCII heatmap rendering.
var shades = []byte{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// String renders the heatmap in ASCII, darker glyphs for larger values.
func (m *Heatmap) String() string {
	var b strings.Builder
	mx := m.MaxValue()
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			v := 0.0
			if mx > 0 {
				v = m.At(r, c) / mx
			}
			i := int(v * float64(len(shades)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(shades) {
				i = len(shades) - 1
			}
			b.WriteByte(shades[i])
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the heatmap as comma-separated rows with 6 significant
// digits, suitable for plotting tools.
func (m *Heatmap) CSV() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6g", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
