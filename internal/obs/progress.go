package obs

import (
	"fmt"
	"io"
	"time"
)

// Progress prints a heartbeat line while a long run executes: cycles
// simulated, simulation speed in cycles/sec, and — when the total cycle
// count is known — percent done and an ETA. It rate-limits itself two
// ways: the wall clock is consulted only every checkEvery cycles (so Tick
// is cheap enough for per-cycle call sites), and a line is printed at most
// once per interval.
//
// Runs that fast-forward over idle stretches (internal/engine) report the
// skipped cycles through Skip, and the heartbeat separates the two: the
// cycles/sec figure counts only cycles that were actually stepped, with
// the fast-forwarded cycles and their share of the clock advance printed
// alongside. Without the split a single long skip would inflate the rate
// by orders of magnitude and wreck the ETA.
type Progress struct {
	w          io.Writer
	interval   time.Duration
	checkEvery int64

	start     time.Time
	lastPrint time.Time
	lastCheck int64
	lastCycle int64
	lines     int

	// skipped counts fast-forwarded cycles since the last printed line;
	// skippedTotal counts them since the start of the run.
	skipped      int64
	skippedTotal int64
}

// NewProgress returns a heartbeat writer that prints to w at most once per
// interval (default 2s when interval <= 0).
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	now := time.Now()
	return &Progress{w: w, interval: interval, checkEvery: 10_000, start: now, lastPrint: now}
}

// Skip reports that the clock jumped d cycles without stepping them (the
// engine's quiescence fast-forward). Skipped cycles are excluded from the
// heartbeat's cycles/sec and reported separately. A nil Progress is a
// no-op.
func (p *Progress) Skip(d int64) {
	if p == nil || d <= 0 {
		return
	}
	p.skipped += d
	p.skippedTotal += d
}

// Tick reports that the simulation reached the given cycle; total is the
// expected run length in cycles, or <= 0 when unknown. A nil Progress is a
// no-op, and between wall-clock checks Tick costs two compares.
func (p *Progress) Tick(cycle, total int64) {
	if p == nil {
		return
	}
	if cycle-p.lastCheck < p.checkEvery {
		return
	}
	p.lastCheck = cycle
	now := time.Now()
	since := now.Sub(p.lastPrint)
	if since < p.interval {
		return
	}
	stepped := cycle - p.lastCycle - p.skipped
	if stepped < 0 {
		stepped = 0
	}
	rate := float64(stepped) / since.Seconds()
	// The ETA must use the clock's true advance rate (stepped + skipped):
	// the remaining cycles will fast-forward in the same proportion.
	clockRate := float64(cycle-p.lastCycle) / since.Seconds()
	skipped := p.skipped
	p.lastPrint, p.lastCycle, p.skipped = now, cycle, 0
	p.lines++
	ff := ""
	if skipped > 0 {
		ff = fmt.Sprintf(" (+%d fast-forwarded, %.0f%% skipped)",
			skipped, 100*float64(skipped)/float64(stepped+skipped))
	}
	if total > cycle && clockRate > 0 {
		remaining := time.Duration(float64(total-cycle) / clockRate * float64(time.Second))
		fmt.Fprintf(p.w, "progress: cycle %d/%d (%.1f%%), %.3g cycles/s%s, ETA %s\n",
			cycle, total, 100*float64(cycle)/float64(total), rate, ff, remaining.Round(time.Second))
		return
	}
	fmt.Fprintf(p.w, "progress: cycle %d, %.3g cycles/s%s, elapsed %s\n",
		cycle, rate, ff, now.Sub(p.start).Round(time.Second))
}

// Note prints a one-off annotation line (e.g. "drain aborted at
// DrainLimit"), bypassing the rate limiter: unlike periodic heartbeats, a
// note marks a condition the user should see exactly once. A nil Progress
// is a no-op.
func (p *Progress) Note(cycle int64, format string, args ...any) {
	if p == nil {
		return
	}
	p.lines++
	fmt.Fprintf(p.w, "progress: cycle %d: %s\n", cycle, fmt.Sprintf(format, args...))
}

// Done prints a final summary line when at least one heartbeat was
// printed, so quiet short runs stay quiet. A nil Progress is a no-op.
func (p *Progress) Done(cycle int64) {
	if p == nil || p.lines == 0 {
		return
	}
	elapsed := time.Since(p.start)
	stepped := cycle - p.skippedTotal
	if stepped < 0 {
		stepped = 0
	}
	rate := float64(stepped) / elapsed.Seconds()
	if p.skippedTotal > 0 {
		fmt.Fprintf(p.w, "progress: finished at cycle %d in %s (%.3g cycles/s, %d fast-forwarded)\n",
			cycle, elapsed.Round(time.Millisecond), rate, p.skippedTotal)
		return
	}
	fmt.Fprintf(p.w, "progress: finished at cycle %d in %s (%.3g cycles/s)\n",
		cycle, elapsed.Round(time.Millisecond), rate)
}
