package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer of the
// program. Spans are recorded from the benchmark's own files only (spans
// inside the program are a later change, ROADMAP item 5).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Job ties the spans of one service job together (empty otherwise).
	Job     string `json:"job,omitempty"`
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end are nil checks.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root span) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the service's
// queued/run intervals are reconstructed from View timestamps).
func (t *tracer) add(parent int, name, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// selfRow is one line of the per-layer table: all spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

// selfTimes folds the spans by name; a span's self time is its duration
// minus the part its direct children cover.
func (t *tracer) selfTimes() []selfRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	byName := map[string]*selfRow{}
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		self := d - child[s.ID]
		if self < 0 { // children of a service job overlap their siblings
			self = 0
		}
		r.Count++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(self) / 1e6
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// write stores the spans and their self-time table under dir.
func (t *tracer) write(dir, workload string, rows []selfRow) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Spans    []span    `json:"spans"`
		Self     []selfRow `json:"self"`
	}{workload, t.spans, rows})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}
