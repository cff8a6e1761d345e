package main

// The -report summarizer: renders a run ledger (one JSONL record per
// experiment execution, written with -ledger) into a per-sweep dashboard —
// cache efficiency, pipeline throughput, fast-forward savings, and the
// slowest specs — so a long figure regeneration can be profiled after the
// fact without rerunning anything.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"noceval/internal/obs/ledger"
	"noceval/internal/stats"
)

// kindAgg accumulates the per-run-mode dashboard row.
type kindAgg struct {
	runs, hits, consulted, errs int
	discarded                   int // runs a sweep cancelled (discardedBySweep)
	wall                        time.Duration
	computeWall                 time.Duration // wall time of non-hit runs only
	cycles                      int64
	stepped, skipped            int64
	faults                      int64
}

// writeReport reads the ledger at path and writes the dashboard to w.
func writeReport(w io.Writer, path string) error {
	recs, dropped, err := ledger.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "run ledger %s: %d records", path, len(recs))
	if dropped > 0 {
		fmt.Fprintf(w, " (%d undecodable lines dropped)", dropped)
	}
	fmt.Fprintln(w)
	if len(recs) == 0 {
		return nil
	}

	byKind := map[string]*kindAgg{}
	var kinds []string
	for _, r := range recs {
		a := byKind[r.Kind]
		if a == nil {
			a = &kindAgg{}
			byKind[r.Kind] = a
			kinds = append(kinds, r.Kind)
		}
		a.runs++
		if r.Cached {
			a.consulted++
		}
		if r.Hit {
			a.hits++
		} else {
			a.computeWall += time.Duration(r.WallNS)
		}
		switch {
		case discardedBySweep(r.Err):
			a.discarded++
		case r.Err != "":
			a.errs++
		}
		a.wall += time.Duration(r.WallNS)
		a.cycles += r.Cycles
		a.stepped += r.Stepped
		a.skipped += r.Skipped
		a.faults += r.FaultInjected
	}
	sort.Strings(kinds)

	t := stats.NewTable("Run ledger summary",
		"kind", "runs", "cache hits", "hit rate", "errors", "discarded",
		"sim cycles", "Mcyc/s", "ff skipped", "wall")
	for _, k := range kinds {
		a := byKind[k]
		hitRate := "-"
		if a.consulted > 0 {
			hitRate = fmt.Sprintf("%.0f%%", 100*float64(a.hits)/float64(a.consulted))
		}
		// Pipeline throughput counts only computed runs: a hit simulates
		// nothing, so folding its cycles into the rate would overstate it.
		mcycs := "-"
		if a.computeWall > 0 && a.stepped+a.skipped > 0 {
			mcycs = fmt.Sprintf("%.1f", float64(a.stepped+a.skipped)/a.computeWall.Seconds()/1e6)
		}
		skip := "-"
		if total := a.stepped + a.skipped; total > 0 {
			skip = fmt.Sprintf("%.0f%%", 100*float64(a.skipped)/float64(total))
		}
		t.AddRow(k,
			fmt.Sprint(a.runs),
			fmt.Sprintf("%d/%d", a.hits, a.consulted),
			hitRate,
			fmt.Sprint(a.errs),
			fmt.Sprint(a.discarded),
			fmt.Sprint(a.cycles),
			mcycs,
			skip,
			a.wall.Round(time.Millisecond).String())
	}
	fmt.Fprintln(w, t.Text())

	// Per-QoS-class rollup of multi-class runs: totals per class name plus
	// the injection-weighted mean latency, so a QoS sweep's priority
	// protection shows up directly in the dashboard.
	type classAgg struct {
		injected, delivered int64
		latSum              float64 // avg latency weighted by measured packets
		latW                int64
	}
	byClass := map[string]*classAgg{}
	var classNames []string
	for _, r := range recs {
		for i, name := range r.ClassNames {
			a := byClass[name]
			if a == nil {
				a = &classAgg{}
				byClass[name] = a
				classNames = append(classNames, name)
			}
			if i < len(r.ClassInjected) {
				a.injected += r.ClassInjected[i]
			}
			if i < len(r.ClassDelivered) {
				a.delivered += r.ClassDelivered[i]
			}
			if i < len(r.ClassAvgLatency) && i < len(r.ClassInjected) && r.ClassInjected[i] > 0 {
				a.latSum += r.ClassAvgLatency[i] * float64(r.ClassInjected[i])
				a.latW += r.ClassInjected[i]
			}
		}
	}
	if len(classNames) > 0 {
		sort.Strings(classNames)
		ct := stats.NewTable("QoS classes", "class", "injected", "delivered", "avg latency")
		for _, name := range classNames {
			a := byClass[name]
			lat := "-"
			if a.latW > 0 {
				lat = fmt.Sprintf("%.2f", a.latSum/float64(a.latW))
			}
			ct.AddRow(name, fmt.Sprint(a.injected), fmt.Sprint(a.delivered), lat)
		}
		fmt.Fprintln(w, ct.Text())
	}

	// Slowest computed specs: where a warm rerun's time would actually go.
	slow := make([]ledger.Record, 0, len(recs))
	for _, r := range recs {
		if !r.Hit {
			slow = append(slow, r)
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].WallNS > slow[j].WallNS })
	if len(slow) > 5 {
		slow = slow[:5]
	}
	if len(slow) > 0 {
		st := stats.NewTable("Slowest computed specs", "kind", "spec", "wall", "sim cycles", "skip")
		for _, r := range slow {
			spec := r.Spec
			if len(spec) > 12 {
				spec = spec[:12]
			}
			if spec == "" {
				spec = "-"
			}
			skip := "-"
			if total := r.Stepped + r.Skipped; total > 0 {
				skip = fmt.Sprintf("%.0f%%", 100*float64(r.Skipped)/float64(total))
			}
			st.AddRow(r.Kind, spec,
				time.Duration(r.WallNS).Round(time.Millisecond).String(),
				fmt.Sprint(r.Cycles), skip)
		}
		fmt.Fprintln(w, st.Text())
	}
	return nil
}

// discardedBySweep reports a run the open-loop sweep cancelled because a
// lower rate of its wave had already proven unstable. The sweep never
// reports such a rate and a serial sweep would never have started it, so
// it is not an error; openloop's cancellation cause says "sweep
// discarded".
func discardedBySweep(err string) bool { return strings.Contains(err, "sweep discarded") }
