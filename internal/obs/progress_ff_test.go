package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var rateRe = regexp.MustCompile(`([0-9.e+]+) cycles/s`)

// TestProgressFastForwardHeartbeat is the regression test for the
// heartbeat's rate accounting across clock fast-forwards: skipped cycles
// must not inflate the cycles/sec figure, and the line must report the
// fast-forwarded share explicitly.
func TestProgressFastForwardHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Nanosecond)

	// A plain stepped stretch: the line format stays the legacy one, no
	// fast-forward suffix.
	time.Sleep(2 * time.Millisecond)
	p.Tick(20_000, 0)
	first := buf.String()
	if first == "" {
		t.Fatal("no heartbeat printed")
	}
	if strings.Contains(first, "fast-forwarded") {
		t.Errorf("no-skip heartbeat mentions fast-forward: %q", first)
	}

	// The engine jumps 1M idle cycles, then steps 10k more. The heartbeat
	// rate must count only the 10k stepped cycles.
	buf.Reset()
	p.Skip(1_000_000)
	time.Sleep(2 * time.Millisecond)
	p.Tick(1_030_000, 0)
	line := buf.String()
	if !strings.Contains(line, "+1000000 fast-forwarded") {
		t.Errorf("heartbeat after skip missing fast-forward count: %q", line)
	}
	if !strings.Contains(line, "99% skipped") {
		t.Errorf("heartbeat after skip missing skip share (1000000/1010000): %q", line)
	}
	m := rateRe.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("heartbeat has no cycles/s figure: %q", line)
	}
	rate, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("unparsable rate %q in %q", m[1], line)
	}
	// 10k stepped cycles over the >= 2ms we slept bounds the true rate at
	// 5e6/s; the pre-fix behaviour (counting the 1.01M clock advance)
	// would report ~100x that.
	if rate > 5e6+1 {
		t.Errorf("rate %.3g cycles/s counts fast-forwarded cycles (stepped only 10k over >=2ms)", rate)
	}
	if p.skippedTotal != 1_000_000 {
		t.Errorf("skippedTotal = %d, want 1000000", p.skippedTotal)
	}

	// The final summary also separates the split.
	buf.Reset()
	p.Done(1_030_000)
	done := buf.String()
	if !strings.Contains(done, "1000000 fast-forwarded") {
		t.Errorf("Done() summary missing fast-forward count: %q", done)
	}
}

// TestProgressSkipNil checks the nil no-op contract of Skip.
func TestProgressSkipNil(t *testing.T) {
	var p *Progress
	p.Skip(100)
}
