package ledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRoundTrip appends records and reads them back unchanged.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: "openloop", Spec: "abc123", Engine: "activeset", Cached: true, Hit: true,
			WallNS: 1500, Cycles: 120000, CyclesPerSec: 8e10},
		{Kind: "batch", Engine: "activeset", WallNS: 2_000_000, Cycles: 54321,
			Stepped: 40000, Skipped: 14321, SkipRatio: 0.2636,
			Workers: 8, ParWaves: 2, ParTasks: 17,
			FaultInjected: 3, FaultRetried: 2, FaultDead: 1},
		{Kind: "exec", WallNS: 10, Err: "hit the cycle limit"},
		{Kind: "openloop", Engine: "activeset", WallNS: 900, Cycles: 40000,
			ClassNames:      []string{"latency", "bulk"},
			ClassInjected:   []int64{1200, 4800},
			ClassDelivered:  []int64{1300, 5100},
			ClassAvgLatency: []float64{21.5, 48.25}},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Appends(); got != int64(len(want)) {
		t.Fatalf("Appends() = %d, want %d", got, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, dropped, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d lines from a clean ledger", dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		w.Schema = Schema // Append stamps the schema
		if !reflect.DeepEqual(got[i], w) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], w)
		}
	}
}

// TestNilLedger checks that every method on a nil ledger is a no-op.
func TestNilLedger(t *testing.T) {
	var l *Ledger
	if err := l.Append(Record{Kind: "openloop"}); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if l.Appends() != 0 {
		t.Fatal("nil accessors should return zero values")
	}
}

// TestUnknownFieldsPreserved checks forward compatibility: a record
// written by a newer schema with extra fields round-trips through this
// build with those fields intact.
func TestUnknownFieldsPreserved(t *testing.T) {
	line := `{"schema":9,"kind":"openloop","wall_ns":42,"class_names":["hi","lo"],"future_field":{"x":1},"another":"later"}`
	var r Record
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != 9 || r.Kind != "openloop" || r.WallNS != 42 {
		t.Fatalf("known fields mangled: %+v", r)
	}
	if len(r.ClassNames) != 2 || r.ClassNames[0] != "hi" {
		t.Fatalf("class_names not decoded: %+v", r.ClassNames)
	}
	if len(r.Unknown) != 2 {
		t.Fatalf("Unknown = %v, want future_field and another", r.Unknown)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["future_field"]) != `{"x":1}` {
		t.Errorf("future_field not preserved: %s", out)
	}
	if string(m["another"]) != `"later"` {
		t.Errorf("another not preserved: %s", out)
	}
	// A known field never gets clobbered by a stale Unknown entry.
	r.Unknown["kind"] = json.RawMessage(`"hijacked"`)
	out, err = json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"kind":"openloop"`) {
		t.Errorf("known field lost to Unknown collision: %s", out)
	}
}

// TestTornTailRecovery simulates a crash mid-append: the file ends in a
// partial record, and the next Open must truncate it away so appends land
// on a record boundary.
func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: "openloop", WallNS: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Crash: half a record, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"kind":"bat`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: "barrier", WallNS: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recs, dropped, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d lines after recovery, want 0", dropped)
	}
	if len(recs) != 2 || recs[0].Kind != "openloop" || recs[1].Kind != "barrier" {
		t.Fatalf("recovered ledger = %+v, want [openloop barrier]", recs)
	}
}

// TestReadDropsCorruptLines checks that a ledger with a mangled interior
// line still yields every decodable record.
func TestReadDropsCorruptLines(t *testing.T) {
	in := `{"schema":1,"kind":"openloop"}
not json at all
{"schema":1,"kind":"batch"}

{"schema":1,"kind":"barrier"}
`
	recs, dropped, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
}

// TestOpenEmptyPath rejects the empty path instead of creating "".
func TestOpenEmptyPath(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
}
