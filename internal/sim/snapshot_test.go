package sim

import "testing"

// TestRehydrateBurnsPastTimers pins the fork-time replay contract: inside
// BeginRehydrate/EndRehydrate an At strictly before the cutoff consumes a
// sequence number but schedules nothing, an At at or after the cutoff
// schedules for real, and EndRehydrate restores normal scheduling.
func TestRehydrateBurnsPastTimers(t *testing.T) {
	k := NewKernel(1)
	k.Run(Time(10 * Millisecond)) // empty queue: the clock moves to the bound
	var fired []string
	note := func(s string) func() { return func() { fired = append(fired, s) } }

	seq0 := k.Seq()
	k.BeginRehydrate(k.Now())
	burned := k.At(Time(3*Millisecond), note("burned"))
	atCut := k.At(Time(10*Millisecond), note("at-cutoff"))
	k.EndRehydrate()
	if got := k.Seq(); got != seq0+2 {
		t.Fatalf("rehydration allocated %d sequence numbers, want 2 (one burned, one real)", got-seq0)
	}
	if burned.Pending() || burned.Cancel() {
		t.Fatal("a burned timer must read as already fired")
	}
	if !atCut.Pending() {
		t.Fatal("a timer at the cutoff must schedule for real")
	}
	// Outside rehydration a past At clamps to now and fires.
	k.At(Time(2*Millisecond), note("clamped"))
	k.Run(Time(20 * Millisecond))
	want := []string{"at-cutoff", "clamped"}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestStrictPastRecordsViolation pins the strict-past guard a fork applies
// novel perturbations under: the first At before now is recorded (later
// ones do not overwrite it), future Ats are not violations, re-enabling
// clears the record, and rehydration takes precedence — a burned timer is
// not a violation.
func TestStrictPastRecordsViolation(t *testing.T) {
	k := NewKernel(1)
	k.Run(Time(10 * Millisecond))

	k.SetStrictPast(true)
	k.At(Time(15*Millisecond), func() {})
	if v := k.StrictViolation(); v != "" {
		t.Fatalf("future timer recorded as a violation: %s", v)
	}
	k.At(Time(4*Millisecond), func() {})
	first := k.StrictViolation()
	if first == "" {
		t.Fatal("schedule into the past not recorded")
	}
	k.At(Time(1*Millisecond), func() {})
	if got := k.StrictViolation(); got != first {
		t.Fatalf("second violation overwrote the first: %q vs %q", got, first)
	}
	k.SetStrictPast(false)
	if k.StrictViolation() != first {
		t.Fatal("disabling strict mode must keep the record for the caller to check")
	}

	k.SetStrictPast(true)
	if v := k.StrictViolation(); v != "" {
		t.Fatalf("re-enabling strict mode kept a stale violation: %s", v)
	}
	k.BeginRehydrate(k.Now())
	k.At(Time(4*Millisecond), func() {})
	k.EndRehydrate()
	k.SetStrictPast(false)
	if v := k.StrictViolation(); v != "" {
		t.Fatalf("a rehydration-burned timer was recorded as a violation: %s", v)
	}
}
