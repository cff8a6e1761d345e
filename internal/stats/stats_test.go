package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) || !almost(s.Median, 3) {
		t.Errorf("bad summary: %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2.5)) {
		t.Errorf("std = %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Error("empty summary not zero")
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Median != 7 {
		t.Errorf("single-sample summary: %+v", one)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	} {
		if got := Quantile(xs, tc.q); !almost(got, tc.want) {
			t.Errorf("Quantile(%.3f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("empty quantile did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1) {
		t.Errorf("perfect correlation = %v, err %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1) {
		t.Errorf("perfect anticorrelation = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestPearsonBounds(t *testing.T) {
	// Property: |r| <= 1 for any sample with variance.
	err := quick.Check(func(seed int64) bool {
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000) / 100
		}
		for i := range xs {
			xs[i], ys[i] = next(), next()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // zero-variance draw
		}
		return r >= -1.0000001 && r <= 1.0000001
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	out, err := Normalize([]float64{2, 4, 6}, 0)
	if err != nil || !almost(out[0], 1) || !almost(out[1], 2) || !almost(out[2], 3) {
		t.Errorf("normalize = %v, err %v", out, err)
	}
	if _, err := Normalize([]float64{0, 1}, 0); err == nil {
		t.Error("zero baseline accepted")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 || Min(xs) != 1 || Max(xs) != 3 {
		t.Error("mean/min/max broken")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-sample helpers not zero")
	}
}

func TestHistogramConservation(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	// Out-of-range samples clamp but are still counted.
	h.AddAll([]float64{-5, 0, 2.5, 5, 9.99, 10, 100})
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 7 {
		t.Errorf("bin sum = %d", sum)
	}
	fr := h.Fractions()
	var fsum float64
	for _, f := range fr {
		fsum += f
	}
	if !almost(fsum, 1) {
		t.Errorf("fractions sum to %v", fsum)
	}
	if h.BinWidth() != 2 {
		t.Errorf("bin width = %v", h.BinWidth())
	}
	if !strings.Contains(h.String(), "%") {
		t.Error("histogram rendering empty")
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad histogram accepted")
				}
			}()
			fn()
		}()
	}
}

func TestHeatmap(t *testing.T) {
	m := NewHeatmap(2, 3)
	m.Set(0, 0, 4)
	m.Addf(1, 2, 2)
	m.Addf(1, 2, 2)
	if m.At(1, 2) != 4 || m.MaxValue() != 4 {
		t.Error("heatmap accessors broken")
	}
	n := m.Normalized()
	if n.At(0, 0) != 1 || n.At(1, 2) != 1 || n.At(0, 1) != 0 {
		t.Error("normalization broken")
	}
	if !strings.Contains(m.CSV(), "4") {
		t.Error("CSV missing data")
	}
	if len(strings.Split(strings.TrimSpace(m.String()), "\n")) != 2 {
		t.Error("ASCII render has wrong row count")
	}
	zero := NewHeatmap(2, 2).Normalized()
	if zero.MaxValue() != 0 {
		t.Error("all-zero normalization changed values")
	}
}

func TestSeriesAndFigure(t *testing.T) {
	f := NewFigure("test", "x", "y")
	a := f.AddSeries("a")
	a.Add(1, 10)
	a.Add(2, 20)
	b := f.AddSeries("b")
	b.Add(2, 200)
	f.Note("coefficient = %.2f", 0.5)

	if v, ok := a.YAt(2); !ok || v != 20 {
		t.Error("YAt broken")
	}
	if _, ok := a.YAt(99); ok {
		t.Error("YAt found missing point")
	}

	csv := f.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n") {
		t.Errorf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1,10,\n") {
		t.Errorf("csv missing blank for absent point:\n%s", csv)
	}
	text := f.Text()
	if !strings.Contains(text, "coefficient = 0.50") {
		t.Error("note missing from text")
	}
	if !strings.Contains(text, "-") {
		t.Error("missing-point marker absent")
	}
}

func TestCSVEscape(t *testing.T) {
	f := NewFigure("t", "x", "y")
	s := f.AddSeries(`weird,"name"`)
	s.Add(1, 1)
	csv := f.CSV()
	if !strings.Contains(csv, `"weird,""name"""`) {
		t.Errorf("escaping broken: %q", csv)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("params", "name", "value")
	tb.AddRow("only-one-cell")
	tb.AddRow("a", "b")
	text := tb.Text()
	if !strings.Contains(text, "params") || !strings.Contains(text, "only-one-cell") {
		t.Errorf("table text: %q", text)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("table csv: %q", csv)
	}
	if !strings.Contains(csv, "only-one-cell,\n") {
		t.Error("short row not padded")
	}
}
