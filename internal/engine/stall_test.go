package engine_test

import (
	"testing"

	"noceval/internal/engine"
)

// fakeNet is a minimal engine.Network: always quiescent, counts steps.
type fakeNet struct {
	now      int64
	internal int64
}

func (f *fakeNet) Now() int64      { return f.now }
func (f *fakeNet) Step()           { f.now++ }
func (f *fakeNet) Quiescent() bool { return true }

func (f *fakeNet) NextInternalEventAt() int64 { return f.internal }

// stuckDriver is never done, always idle, and has nothing scheduled.
type stuckDriver struct{ cycles int }

func (d *stuckDriver) Cycle(int64)           { d.cycles++ }
func (d *stuckDriver) Done(int64) bool       { return false }
func (d *stuckDriver) Idle(int64) bool       { return true }
func (d *stuckDriver) NextEvent(int64) int64 { return engine.NoEvent }

// TestRunDetectsProvableStall: an idle driver over a quiescent fabric with
// no scheduled events can never make progress; Run must invoke OnStall and
// return immediately rather than spinning to the deadline.
func TestRunDetectsProvableStall(t *testing.T) {
	net := &fakeNet{internal: engine.NoEvent}
	d := &stuckDriver{}
	var stalledAt int64 = -1
	o := engine.RunOutcome(engine.Config{
		Net:      net,
		Deadline: 1_000_000,
		OnStall:  func(now int64) { stalledAt = now },
	}, d)
	end, completed := o.End, o.Completed
	if completed {
		t.Fatal("stuck run reported completed")
	}
	if stalledAt != 0 || end != 0 {
		t.Errorf("stall detected at cycle %d (end %d), want immediately at 0", stalledAt, end)
	}
	if d.cycles != 0 {
		t.Errorf("driver ran %d cycles after the stall was provable", d.cycles)
	}
}

// TestRunHonorsInternalSchedule: a pending fabric-internal event (a NIC
// retransmission timeout) means the run is NOT stuck — the engine must
// fast-forward to it instead of stalling.
func TestRunHonorsInternalSchedule(t *testing.T) {
	net := &fakeNet{internal: 50}
	stalled := false
	// The driver stays idle; once the clock passes the internal event the
	// fabric clears it, and the run stalls then — proving the engine waited.
	d := &stuckDriver{}
	o := engine.RunOutcome(engine.Config{
		Net:      net,
		Deadline: 1_000_000,
		OnStall: func(now int64) {
			stalled = true
		},
	}, &clearingDriver{stuckDriver: d, net: net})
	end, completed := o.End, o.Completed
	if completed {
		t.Fatal("run reported completed")
	}
	if !stalled {
		t.Fatal("run never stalled after the internal schedule drained")
	}
	if end < 50 {
		t.Errorf("run stalled at cycle %d, before the internal event at 50", end)
	}
}

// clearingDriver clears the fake fabric's internal event once reached, so
// the run stalls right after it fires.
type clearingDriver struct {
	*stuckDriver
	net *fakeNet
}

func (d *clearingDriver) Cycle(now int64) {
	d.stuckDriver.Cycle(now)
	if now >= d.net.internal {
		d.net.internal = engine.NoEvent
	}
}
