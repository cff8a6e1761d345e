// Command figures regenerates every table and figure of the paper's
// evaluation. Each figure is written under -out as both a human-readable
// text table and a CSV, ready for plotting.
//
// Usage:
//
//	figures -all                # everything (minutes)
//	figures -fig 5              # one figure
//	figures -table 3            # one table
//	figures -id ablations       # the side-claim checks (ablations.txt)
//	figures -full               # paper-scale parameters (much slower)
//	figures -all -cache -serve :9500 -ledger runs.jsonl
//	                            # live metrics + one record per run
//	figures -report runs.jsonl  # summarize a run ledger and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"noceval/internal/core"
	"noceval/internal/stats"
)

// ctx carries shared settings into figure generators, and the one run
// set every generator of an invocation simulates its specs through: a
// spec two generators list is simulated once.
type ctx struct {
	out  string
	full bool
	runs core.RunSet
}

// scale selects between the quick default and the paper-scale value.
func (c *ctx) scale(quick, full int) int {
	if c.full {
		return full
	}
	return quick
}

// writeFile writes content under the output directory.
func (c *ctx) writeFile(name, content string) error {
	path := filepath.Join(c.out, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

// writeFigure emits a figure as text (table plus ASCII chart) and CSV.
func (c *ctx) writeFigure(base string, f *stats.Figure) error {
	if err := c.writeFile(base+".txt", f.Text()+"\n"+f.Chart(60, 18)); err != nil {
		return err
	}
	return c.writeFile(base+".csv", f.CSV())
}

// writeTable emits a table as text and CSV.
func (c *ctx) writeTable(base string, t *stats.Table) error {
	if err := c.writeFile(base+".txt", t.Text()); err != nil {
		return err
	}
	return c.writeFile(base+".csv", t.CSV())
}

// generators maps figure/table ids to their producers.
var generators = map[string]func(*ctx) error{}

func register(id string, fn func(*ctx) error) { generators[id] = fn }

func main() {
	var (
		fig    = flag.Int("fig", 0, "figure number to regenerate (1-22)")
		table  = flag.Int("table", 0, "table number to regenerate (1-4)")
		id     = flag.String("id", "", "generator id to regenerate (for ids outside the fig/table numbering, e.g. heatmap)")
		all    = flag.Bool("all", false, "regenerate every figure and table")
		golden = flag.Bool("golden", false, "regenerate the golden regression subset (use -out results/golden)")
		out    = flag.String("out", "results", "output directory")
		full   = flag.Bool("full", false, "paper-scale parameters (slow)")
		report = flag.String("report", "", "summarize a run ledger file into a dashboard table and exit")
	)
	sess := core.Session{Log: os.Stdout}
	flag.BoolVar(&sess.Cache, "cache", false, "reuse experiment results from the on-disk cache; cold points are computed and stored")
	flag.StringVar(&sess.CacheDir, "cache-dir", ".expcache", "experiment cache directory (with -cache)")
	flag.StringVar(&sess.Ledger, "ledger", "", "append one JSONL record per experiment run to this file")
	flag.StringVar(&sess.Serve, "serve", "", "serve live metrics on this address (e.g. :9500) while generating")
	flag.BoolVar(&sess.Screen, "screen", false, "analytically screen sweeps: skip predicted deep-saturation simulations (output is bit-identical)")
	flag.Parse()

	if *report != "" {
		if err := writeReport(os.Stdout, *report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sess.Open(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := &ctx{out: *out, full: *full}

	var ids []string
	switch {
	case *all:
		// The golden subset is excluded: it is the same generators' code
		// at golden scale, and its output belongs under results/golden
		// (see -golden / make golden-update).
		for id := range generators {
			if !strings.HasPrefix(id, "golden") {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
	case *golden:
		for id := range generators {
			if strings.HasPrefix(id, "golden") {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
	case *fig > 0:
		ids = []string{fmt.Sprintf("fig%02d", *fig)}
	case *table > 0:
		ids = []string{fmt.Sprintf("table%d", *table)}
	case *id != "":
		ids = []string{*id}
	default:
		fmt.Fprintln(os.Stderr, "specify -fig N, -table N, -id NAME, or -all; available:")
		for id := range generators {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintln(os.Stderr, "  ", id)
		}
		os.Exit(2)
	}

	for _, id := range ids {
		gen, ok := generators[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure/table %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("generating %s...\n", id)
		if err := gen(c); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("  %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
	if err := sess.Close(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
