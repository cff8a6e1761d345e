package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fastCtx returns a ctx writing into a fresh temp dir.
func fastCtx(t *testing.T) *ctx {
	t.Helper()
	return &ctx{out: t.TempDir()}
}

func read(t *testing.T, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestGeneratorRegistryComplete(t *testing.T) {
	// Every figure 1-22 and table 1-4 must be registered.
	for i := 1; i <= 22; i++ {
		id := "fig" + pad2(i)
		if generators[id] == nil {
			t.Errorf("missing generator %s", id)
		}
	}
	for i := 1; i <= 4; i++ {
		id := "table" + string(rune('0'+i))
		if generators[id] == nil {
			t.Errorf("missing generator %s", id)
		}
	}
	// So must every generator outside that numbering that writes a
	// committed file under results/.
	for _, id := range []string{"ablations", "heatmap", "resilience", "qos", "analytic-corr"} {
		if generators[id] == nil {
			t.Errorf("missing generator %s", id)
		}
	}
}

// TestAblationTitlesMatchCommittedReport checks the ablation list against
// the section headers of the committed report, in order, without running
// a simulation.
func TestAblationTitlesMatchCommittedReport(t *testing.T) {
	var want []string
	for _, line := range strings.Split(read(t, "../../results", "ablations.txt"), "\n") {
		if title, ok := strings.CutPrefix(line, "== "); ok {
			want = append(want, strings.TrimSuffix(title, " =="))
		}
	}
	var got []string
	for _, a := range ablations {
		got = append(got, a.title)
	}
	if !slices.Equal(got, want) {
		t.Errorf("ablation titles %q, committed report headers %q", got, want)
	}
}

func pad2(i int) string {
	if i < 10 {
		return "0" + string(rune('0'+i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestTableGenerators(t *testing.T) {
	c := fastCtx(t)
	if err := table1(c); err != nil {
		t.Fatal(err)
	}
	out := read(t, c.out, "table1.txt")
	for _, want := range []string{"topology", "8x8 2D mesh", "DOR", "round robin"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
	if err := table2(c); err != nil {
		t.Fatal(err)
	}
	out = read(t, c.out, "table2.txt")
	if !strings.Contains(out, "300-cycle DRAM") {
		t.Errorf("table2 missing DRAM row: %s", out)
	}
	csv := read(t, c.out, "table1.csv")
	if !strings.HasPrefix(csv, "parameter,values,baseline") {
		t.Errorf("table1 csv header: %q", csv)
	}
}

func TestFig12Generator(t *testing.T) {
	c := fastCtx(t)
	if err := fig12(c); err != nil {
		t.Fatal(err)
	}
	out := read(t, c.out, "fig12.txt")
	for _, want := range []string{"S", "D", "I", "DOR", "VAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig12 missing %q", want)
		}
	}
	// 14-hop minimal route: exactly 13 intermediate '*' marks per panel
	// (source and destination replace two endpoints of the walk).
	if strings.Count(out, "*") < 20 {
		t.Errorf("fig12 route marks missing:\n%s", out)
	}
}

func TestScaleHelper(t *testing.T) {
	c := &ctx{}
	if c.scale(10, 100) != 10 || c.scale64(10, 100) != 10 {
		t.Error("quick scale broken")
	}
	c.full = true
	if c.scale(10, 100) != 100 || c.scale64(10, 100) != 100 {
		t.Error("full scale broken")
	}
}

func TestHeatmapGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a batch simulation")
	}
	c := fastCtx(t)
	if err := heatmapFig(c); err != nil {
		t.Fatal(err)
	}
	out := read(t, c.out, "heatmap.txt")
	if !strings.Contains(out, "crossbar utilization") || !strings.Contains(out, "mesh4x4") {
		t.Errorf("heatmap header missing:\n%s", out)
	}
	csv := read(t, c.out, "heatmap.csv")
	// A 4x4 mesh renders as four CSV rows of four cells.
	if rows := strings.Count(strings.TrimSpace(csv), "\n") + 1; rows != 4 {
		t.Errorf("heatmap csv has %d rows, want 4:\n%s", rows, csv)
	}
}

func TestFig07Generator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two batch simulations")
	}
	c := fastCtx(t)
	if err := fig07(c); err != nil {
		t.Fatal(err)
	}
	out := read(t, c.out, "fig07.txt")
	if !strings.Contains(out, "mesh8x8") || !strings.Contains(out, "torus8x8") {
		t.Errorf("fig07 missing topologies")
	}
	if !strings.Contains(out, "CSV") {
		t.Errorf("fig07 missing CSV block")
	}
}
