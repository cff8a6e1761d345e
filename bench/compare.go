package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// infoBound judges the metrics the driver does not gate, at the same
// share as the gated ones.
const infoBound = 0.25

// worseBy returns by what share of a the value b is worse, given the
// metric's direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// relSpread is the interquartile range of the repetitions as a share of
// their median, 0 when the metric has a single reading.
func relSpread(s spread) float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// verdict judges b against a for one metric: regressed when worse by more
// than the bound, unless the repetitions of either side spread wider than
// the bound, which leaves the pair unresolved.
func verdict(d metricDef, bound float64, a, b float64, sa, sb spread) string {
	if worseBy(d.Better, a, b) <= bound {
		return verdictOK
	}
	if relSpread(sa) > bound || relSpread(sb) > bound {
		return verdictUnresolved
	}
	return verdictRegressed
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Records) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return &f, nil
}

// compareFiles reports, for every (metric, workload) pair of two result
// files, the ratio b/a, the bound and the verdict. It returns the exit
// status: 0 when every pair is ok, 1 when one regressed (or an operation
// failed, or simulated results differ), 3 when the worst is unresolved.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(w, "nocbench:", err)
	return 2
}

func compareResults(w io.Writer, a, b *resultFile) int {
	byName := map[string]*record{}
	for _, r := range b.Records {
		byName[r.Workload] = r
	}
	// A traced file holds the per-layer metrics, which have no bound:
	// their rows carry the ratio only.
	defs := endToEnd
	if a.Trace {
		defs = perLayer
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(w, "%-16s %-40s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, ra := range a.Records {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-16s missing from the second file\n", ra.Workload)
			regressed++
			continue
		}
		row := func(d metricDef, bound float64, ma, mb metric) {
			v := "-"
			if bound > 0 {
				v = verdict(d, bound, ma.Value, mb.Value, ra.Spread[d.Name], rb.Spread[d.Name])
			}
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			ratio := 0.0
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Fprintf(w, "%-16s %-40s %14.6g %14.6g %8.3f %6.2f  %s\n", ra.Workload, d.Name, ma.Value, mb.Value, ratio, bound, v)
		}
		for _, d := range defs {
			row(d, d.Bound, ra.Metrics[d.Name], rb.Metrics[d.Name])
		}
		for _, d := range infoMetrics {
			ma, okA := ra.Info[d.Name]
			mb, okB := rb.Info[d.Name]
			if okA && okB && d.Name != "ops_failed_share" {
				row(d, infoBound, ma, mb)
			}
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed operations: %d of %d, %d of %d\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			regressed++
		}
		if a.Seed == b.Seed && ra.ResultDigest != rb.ResultDigest {
			fmt.Fprintf(w, "%-16s result_digest differs: %s vs %s\n", ra.Workload, ra.ResultDigest, rb.ResultDigest)
			regressed++
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 3
	}
	return 0
}
