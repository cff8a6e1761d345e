package engine

import (
	"reflect"
	"testing"
)

// fakeNet is a scriptable Network + FastForwarder that records every
// stepped cycle and every skip, so tests can assert exactly which cycles
// the engine simulated.
type fakeNet struct {
	now       int64
	quiescent bool
	sampleAt  int64 // next observer sample, -1 when sampling is off

	stepped []int64
	skips   [][2]int64 // {from, to}
}

func (f *fakeNet) Now() int64      { return f.now }
func (f *fakeNet) Quiescent() bool { return f.quiescent }
func (f *fakeNet) Step() {
	f.stepped = append(f.stepped, f.now)
	f.now++
	// Mirror the real observer: a sample point that has been reached
	// advances to the next period (fixed 10 here).
	if f.sampleAt >= 0 && f.now > f.sampleAt {
		f.sampleAt += 10
	}
}
func (f *fakeNet) SkipTo(cycle int64) {
	if !f.quiescent {
		panic("SkipTo on non-quiescent fakeNet")
	}
	f.skips = append(f.skips, [2]int64{f.now, cycle})
	f.now = cycle
}
func (f *fakeNet) NextObsSampleAt() int64 { return f.sampleAt }

// fakeDriver is a scriptable Driver.
type fakeDriver struct {
	doneAt int64 // Done when now >= doneAt (never when negative)
	idle   func(now int64) bool
	next   func(now int64) int64

	cycles []int64
}

func (d *fakeDriver) Cycle(now int64) { d.cycles = append(d.cycles, now) }
func (d *fakeDriver) Done(now int64) bool {
	return d.doneAt >= 0 && now >= d.doneAt
}
func (d *fakeDriver) Idle(now int64) bool {
	if d.idle == nil {
		return false
	}
	return d.idle(now)
}
func (d *fakeDriver) NextEvent(now int64) int64 {
	if d.next == nil {
		return NoEvent
	}
	return d.next(now)
}

func TestRunStopsWhenDone(t *testing.T) {
	net := &fakeNet{sampleAt: -1}
	d := &fakeDriver{doneAt: 5}
	o := RunOutcome(Config{Net: net}, d)
	end, completed := o.End, o.Completed
	if !completed || end != 5 {
		t.Fatalf("Run = (%d, %v), want (5, true)", end, completed)
	}
	if want := []int64{0, 1, 2, 3, 4}; !reflect.DeepEqual(d.cycles, want) {
		t.Fatalf("cycles = %v, want %v", d.cycles, want)
	}
}

func TestRunDeadlineAborts(t *testing.T) {
	net := &fakeNet{sampleAt: -1}
	d := &fakeDriver{doneAt: -1}
	o := RunOutcome(Config{Net: net, Deadline: 7}, d)
	end, completed := o.End, o.Completed
	if completed || end != 7 {
		t.Fatalf("Run = (%d, %v), want (7, false)", end, completed)
	}
	if len(d.cycles) != 7 {
		t.Fatalf("ran %d cycles, want 7", len(d.cycles))
	}
}

func TestRunDoneCheckedBeforeDeadline(t *testing.T) {
	// Done and deadline on the same cycle: the run counts as completed,
	// matching the pre-engine loops that tested completion first.
	net := &fakeNet{sampleAt: -1}
	d := &fakeDriver{doneAt: 7}
	o := RunOutcome(Config{Net: net, Deadline: 7}, d)
	end, completed := o.End, o.Completed
	if !completed || end != 7 {
		t.Fatalf("Run = (%d, %v), want (7, true)", end, completed)
	}
}

func TestRunFastForwardsToNextEvent(t *testing.T) {
	// Driver busy for 3 cycles, then idle until an event at 100, done at
	// 103. The engine must step 0-2, skip 3->100, then step 100-102.
	net := &fakeNet{quiescent: true, sampleAt: -1}
	d := &fakeDriver{
		doneAt: 103,
		idle:   func(now int64) bool { return now >= 3 && now < 100 },
		next:   func(int64) int64 { return 100 },
	}
	o := RunOutcome(Config{Net: net}, d)
	end, completed := o.End, o.Completed
	if !completed || end != 103 {
		t.Fatalf("Run = (%d, %v), want (103, true)", end, completed)
	}
	if want := []int64{0, 1, 2, 100, 101, 102}; !reflect.DeepEqual(net.stepped, want) {
		t.Fatalf("stepped cycles = %v, want %v", net.stepped, want)
	}
	if want := [][2]int64{{3, 100}}; !reflect.DeepEqual(net.skips, want) {
		t.Fatalf("skips = %v, want %v", net.skips, want)
	}
}

func TestRunNeverSkipsObserverSample(t *testing.T) {
	// Idle from cycle 1 with the next driver event at 35, but telemetry
	// samples every 10 cycles: the engine must land on (and step) every
	// sample point in between rather than jumping straight to 35.
	net := &fakeNet{quiescent: true, sampleAt: 10}
	d := &fakeDriver{
		doneAt: 36,
		idle:   func(now int64) bool { return now >= 1 && now < 35 },
		next:   func(int64) int64 { return 35 },
	}
	completed := RunOutcome(Config{Net: net}, d).Completed
	if !completed {
		t.Fatal("run did not complete")
	}
	if want := []int64{0, 10, 20, 30, 35}; !reflect.DeepEqual(net.stepped, want) {
		t.Fatalf("stepped cycles = %v, want %v", net.stepped, want)
	}
}

func TestRunIdleWithNoEventRunsToDeadline(t *testing.T) {
	// Nothing scheduled and nothing in flight: the only future milestone
	// is the deadline, so the engine jumps straight there.
	net := &fakeNet{quiescent: true, sampleAt: -1}
	d := &fakeDriver{doneAt: -1, idle: func(int64) bool { return true }}
	o := RunOutcome(Config{Net: net, Deadline: 1000}, d)
	end, completed := o.End, o.Completed
	if completed || end != 1000 {
		t.Fatalf("Run = (%d, %v), want (1000, false)", end, completed)
	}
	if len(net.stepped) != 0 {
		t.Fatalf("stepped cycles = %v, want none", net.stepped)
	}
}

func TestRunIdleNoEventNoDeadlineSteps(t *testing.T) {
	// Without a deadline there is no cycle to jump to; the engine must
	// keep stepping (the driver's Done is then the only way out).
	net := &fakeNet{quiescent: true, sampleAt: -1}
	d := &fakeDriver{doneAt: 3, idle: func(int64) bool { return true }}
	o := RunOutcome(Config{Net: net}, d)
	end, completed := o.End, o.Completed
	if !completed || end != 3 {
		t.Fatalf("Run = (%d, %v), want (3, true)", end, completed)
	}
	if len(net.stepped) != 3 {
		t.Fatalf("stepped %d cycles, want 3", len(net.stepped))
	}
}

// plainNet lacks SkipTo/NextObsSampleAt: the engine must fall back to
// stepping every cycle even when the driver is idle.
type plainNet struct{ now int64 }

func (p *plainNet) Now() int64      { return p.now }
func (p *plainNet) Step()           { p.now++ }
func (p *plainNet) Quiescent() bool { return true }

func TestRunNonFastForwardableNetwork(t *testing.T) {
	net := &plainNet{}
	d := &fakeDriver{doneAt: 20, idle: func(int64) bool { return true }}
	o := RunOutcome(Config{Net: net}, d)
	end, completed := o.End, o.Completed
	if !completed || end != 20 {
		t.Fatalf("Run = (%d, %v), want (20, true)", end, completed)
	}
}
