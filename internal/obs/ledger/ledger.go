// Package ledger is the framework's structured run ledger: an append-only
// JSONL file with one record per experiment execution, written by the
// internal/core runners. Where the metrics registry answers "what is the
// evaluation pipeline doing right now", the ledger answers "what ran, how
// fast, and why" across whole sweeps and sessions — which specs were
// served from the experiment cache, how many simulated cycles each run
// cost, how much of the clock the engine fast-forwarded, and what the
// fault layer injected. The `figures -report` summarizer renders a ledger
// into a per-sweep dashboard.
//
// The format is one JSON object per line. Records carry a schema version
// and preserve unknown fields across a decode/encode round trip, so
// ledgers written by newer builds survive being filtered or rewritten by
// older tooling. Appends are crash-safe the way the experiment cache is:
// a torn final line (the process died mid-append) is truncated away on
// the next Open, and readers drop unparsable lines instead of failing.
//
// A nil *Ledger is a no-op on every method, so the runners guard their
// recording sites with a single nil check and pay nothing when the ledger
// is disabled.
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
)

// Schema is the current ledger record schema version, stored in every
// record. Bump it when a field changes meaning (adding fields does not
// require a bump: readers preserve what they do not understand).
//
// Schema 2 added the per-QoS-class arrays (class_names, class_injected,
// class_delivered, class_avg_latency); class-free records omit them all,
// so schema-1 readers see those lines unchanged.
const Schema = 2

// Record is one experiment execution. Zero-valued optional fields are
// omitted from the JSON so a ledger line stays one short, greppable
// object.
type Record struct {
	// Schema is the record schema version (the package Schema constant at
	// write time).
	Schema int `json:"schema"`
	// Time is the wall-clock time the run (or the screened sweep) started,
	// RFC3339Nano, in UTC.
	Time string `json:"time,omitempty"`
	// Kind is the run mode of a simulation record — "openloop", "batch",
	// "barrier" or "exec" — or "sweep" for the one record a screened
	// sweep appends beside its points' records (Screen* fields, no
	// simulation of its own).
	Kind string `json:"kind"`
	// Spec is the content hash of the full experiment configuration — the
	// same SHA-256 the experiment cache addresses results by, so a ledger
	// line joins against cache entries and across sessions. A sweep
	// record hashes the swept network's parameters.
	Spec string `json:"spec,omitempty"`
	// Engine names the cycle-loop path; "activeset" is the only one.
	Engine string `json:"engine,omitempty"`
	// Cached reports whether the experiment cache was consulted; Hit
	// whether the result came from it (Hit implies Cached).
	Cached bool `json:"cached,omitempty"`
	Hit    bool `json:"hit,omitempty"`
	// WallNS is the wall time of the execution in nanoseconds (for a hit,
	// the lookup+decode time).
	WallNS int64 `json:"wall_ns"`
	// Cycles is the simulated length of the run in cycles (0 for cache
	// hits of result types that do not record it).
	Cycles int64 `json:"cycles,omitempty"`
	// Stepped and Skipped split the engine's clock advance into cycles
	// actually stepped and cycles fast-forwarded over; both are zero for
	// cache hits (no engine ran).
	Stepped int64 `json:"stepped,omitempty"`
	Skipped int64 `json:"skipped,omitempty"`
	// CyclesPerSec is Cycles/WallNS rescaled to seconds — the throughput
	// of the evaluation pipeline itself, not of the simulated network.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// SkipRatio is Skipped/(Stepped+Skipped): how much of the clock the
	// fast-forward saved.
	SkipRatio float64 `json:"skip_ratio,omitempty"`
	// Workers is the worker-pool width available to the surrounding sweep
	// (GOMAXPROCS at record time).
	Workers int `json:"workers,omitempty"`
	// ParWaves and ParTasks snapshot the process-wide worker-pool
	// counters (cumulative waves dispatched and tasks completed) at
	// append time, placing the record inside its sweep's parallel
	// schedule.
	ParWaves int64 `json:"par_waves,omitempty"`
	ParTasks int64 `json:"par_tasks,omitempty"`
	// Fault/recovery counters of a faulted run.
	FaultInjected int64 `json:"fault_injected,omitempty"`
	FaultRetried  int64 `json:"fault_retried,omitempty"`
	FaultDead     int64 `json:"fault_dead,omitempty"`
	// Sharded-simulation shape of the run: the tile count and the mean
	// sampled load imbalance across tiles (1 = perfectly balanced).
	// Omitted for sequential runs.
	Shards         int     `json:"shards,omitempty"`
	ShardImbalance float64 `json:"shard_imbalance,omitempty"`
	// Screening outcome of an analytically screened sweep (kind "sweep"):
	// how many offered-load points the sweep was asked for, how many were
	// actually simulated, how many speculative deep-saturation runs the
	// analytic model screened out, and how many deferred points had to be
	// refined (simulated after all). Omitted for unscreened runs.
	ScreenConsidered int `json:"screen_considered,omitempty"`
	ScreenSimulated  int `json:"screen_simulated,omitempty"`
	ScreenSkipped    int `json:"screen_skipped,omitempty"`
	ScreenRefined    int `json:"screen_refined,omitempty"`
	// Per-QoS-class outcome of a multi-class run, parallel arrays indexed
	// by class (0 = highest priority): class names, measured packets
	// injected, packets delivered in the measurement window, and average
	// measured latency in cycles. All omitted for class-free runs so their
	// ledger lines stay byte-identical to schema 1.
	ClassNames      []string  `json:"class_names,omitempty"`
	ClassInjected   []int64   `json:"class_injected,omitempty"`
	ClassDelivered  []int64   `json:"class_delivered,omitempty"`
	ClassAvgLatency []float64 `json:"class_avg_latency,omitempty"`
	// Err records a failed execution's error text.
	Err string `json:"err,omitempty"`

	// Unknown preserves fields this build does not know about, keyed by
	// their JSON name, so records written by newer schemas round-trip
	// through older tooling unchanged.
	Unknown map[string]json.RawMessage `json:"-"`
}

// recordAlias strips Record's methods so the custom (un)marshalers can
// reuse the plain struct encoding.
type recordAlias Record

// knownKeys is the set of JSON field names the Record struct declares,
// built once by reflection so the unknown-field split cannot drift from
// the struct definition.
var knownKeys = func() map[string]bool {
	keys := make(map[string]bool)
	t := reflect.TypeOf(Record{})
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name != "" && name != "-" {
			keys[name] = true
		}
	}
	return keys
}()

// MarshalJSON encodes the record, merging preserved unknown fields back
// in. Known fields win on a name collision.
func (r Record) MarshalJSON() ([]byte, error) {
	base, err := json.Marshal(recordAlias(r))
	if err != nil {
		return nil, err
	}
	if len(r.Unknown) == 0 {
		return base, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(base, &m); err != nil {
		return nil, err
	}
	for k, v := range r.Unknown {
		if _, taken := m[k]; !taken {
			m[k] = v
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the record, stashing fields this build does not
// declare into Unknown.
func (r *Record) UnmarshalJSON(data []byte) error {
	var a recordAlias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*r = Record(a)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for k, v := range m {
		if !knownKeys[k] {
			if r.Unknown == nil {
				r.Unknown = make(map[string]json.RawMessage)
			}
			r.Unknown[k] = v
		}
	}
	return nil
}

// Ledger is an append-only JSONL run log. All methods are safe for
// concurrent use (sweep workers append from their own goroutines), and
// every method on a nil *Ledger is a no-op.
type Ledger struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	appends int64
}

// Open opens (creating if needed) the ledger at path for appending. A
// torn final line left by a crash mid-append is truncated away first, so
// the file always ends on a record boundary — mirroring the experiment
// cache's corruption-drop behaviour of recovering by discarding, never by
// failing.
func Open(path string) (*Ledger, error) {
	if path == "" {
		return nil, fmt.Errorf("ledger: empty path")
	}
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Ledger{f: f, path: path}, nil
}

// truncateTornTail cuts the file back to its last newline: bytes after it
// are a partial record from an interrupted append.
func truncateTornTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ledger: %w", err)
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	cut := bytes.LastIndexByte(data, '\n') + 1
	if err := os.Truncate(path, int64(cut)); err != nil {
		return fmt.Errorf("ledger: recovering torn tail: %w", err)
	}
	return nil
}

// Appends returns the number of records appended through this handle, 0
// for a nil ledger.
func (l *Ledger) Appends() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Append writes one record as a single line. Errors are returned but the
// ledger stays usable: a failed append never corrupts earlier records
// (the line is written in one Write call, and a torn line is recovered on
// the next Open). A nil ledger is a no-op.
func (l *Ledger) Append(r Record) error {
	if l == nil {
		return nil
	}
	r.Schema = Schema
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("ledger: encoding record: %w", err)
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.appends++
	return nil
}

// Close closes the underlying file. A nil ledger is a no-op.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Read decodes every record from r, dropping undecodable lines (the
// count of dropped lines is returned alongside) the way the experiment
// cache drops corrupt entries: recovery is by discarding, never by
// failing the whole read.
func Read(r io.Reader) (recs []Record, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			dropped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, dropped, fmt.Errorf("ledger: %w", err)
	}
	return recs, dropped, nil
}

// ReadFile reads a ledger file from disk. See Read.
func ReadFile(path string) (recs []Record, dropped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	return Read(f)
}
