package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, Func(func(int) { got = append(got, 3) }), 0)
	e.At(10, Func(func(int) { got = append(got, 1) }), 0)
	e.At(20, Func(func(int) { got = append(got, 2) }), 0)
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, Func(func(int) { got = append(got, i) }), 0)
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(100, Func(func(int) {
		e.After(50, Func(func(int) { at = e.Now() }), 0)
	}), 0)
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, Func(func(int) { fired = true }), 0)
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v for canceled event", e.Now())
	}
}

// TestEngineStaleCancelIsNoOp pins the pooled event records: once an
// event has fired (or been canceled and reaped), its record is reused
// for later events, and canceling through the old handle must not
// touch the event that now occupies the record.
func TestEngineStaleCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	first := e.At(10, Func(func(int) {}), 0)
	e.Run()
	fired := false
	second := e.At(20, Func(func(int) { fired = true }), 0)
	first.Cancel()
	e.Run()
	if !fired {
		t.Fatal("stale Cancel of a fired event canceled its successor")
	}

	canceled := e.At(30, Func(func(int) { t.Error("canceled event fired") }), 0)
	canceled.Cancel()
	e.Run() // reaps the canceled record
	fired = false
	e.At(40, Func(func(int) { fired = true }), 0)
	canceled.Cancel()
	second.Cancel()
	e.Run()
	if !fired {
		t.Fatal("stale Cancel of a reaped event canceled its successor")
	}
}

func TestEnginePastSchedulingErrors(t *testing.T) {
	e := NewEngine()
	reached := false
	e.At(100, Func(func(int) {
		ev := e.At(50, Func(func(int) { t.Error("past event fired") }), 0)
		ev.Cancel() // the returned handle must stay safe to use
		if ev.Time() != 50 {
			t.Errorf("past-event handle time = %v, want 50", ev.Time())
		}
	}), 0)
	e.At(200, Func(func(int) { reached = true }), 0)
	e.Run()
	if e.Err() == nil {
		t.Fatal("scheduling in the past did not set Err")
	}
	if reached {
		t.Error("run loop continued past the scheduling fault")
	}
}

// TestEngineFail: Fail halts the run loop and keeps the first fault.
func TestEngineFail(t *testing.T) {
	e := NewEngine()
	first, second := errors.New("first"), errors.New("second")
	reached := false
	e.At(1, Func(func(int) { e.Fail(first); e.Fail(second) }), 0)
	e.At(2, Func(func(int) { reached = true }), 0)
	e.Run()
	if e.Err() != first || reached {
		t.Fatalf("Err = %v, reached = %v; want the first fault and a halted loop", e.Err(), reached)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, Func(func(int) { n++ }), 0)
	e.At(2, Func(func(int) { n++; e.Halt() }), 0)
	e.At(3, Func(func(int) { n++ }), 0)
	e.Run()
	if n != 2 {
		t.Fatalf("fired %d events before halt, want 2", n)
	}
	// Remaining event still runs on a subsequent Run.
	e.Run()
	if n != 3 {
		t.Fatalf("fired %d events total, want 3", n)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, Func(func(int) { got = append(got, at) }), 0)
	}
	e.RunUntil(12)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf("RunUntil(12) fired %v, want [5 10]", got)
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("drain fired %v, want all four", got)
	}
}

func TestDurationOf(t *testing.T) {
	cases := []struct {
		sec  float64
		want Duration
	}{
		{0, 0},
		{-1, 0},
		{1e-9, 1},
		{1, Second},
		{0.001, Millisecond},
		{1e30, MaxTime},
	}
	for _, c := range cases {
		if got := DurationOf(c.sec); got != c.want {
			t.Errorf("DurationOf(%g) = %v, want %v", c.sec, got, c.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{5 * Microsecond, "5ns"[:0] + "5000ns"},
		{50 * Microsecond, "50.000us"},
		{50 * Millisecond, "50.000ms"},
		{50 * Second, "50.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var done []int
	end1 := r.Acquire(100, nil, Func(func(id int) { done = append(done, id) }), 1)
	end2 := r.Acquire(50, nil, Func(func(id int) { done = append(done, id) }), 2)
	if end1 != 100 || end2 != 150 {
		t.Fatalf("ends = %v %v, want 100 150", end1, end2)
	}
	e.Run()
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion order %v, want [1 2]", done)
	}
	if r.BusyTime() != 150 {
		t.Fatalf("busy = %v, want 150", r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Acquire(10, nil, nil, 0)
	var start Time
	e.At(100, Func(func(int) {
		r.Acquire(5, Func(func(int) { start = e.Now() }), nil, 0)
	}), 0)
	e.Run()
	if start != 100 {
		t.Fatalf("second hold started at %v, want 100 (resource was idle)", start)
	}
}

// Property: for any schedule of events, the engine fires them in
// nondecreasing time order and the clock never goes backwards.
func TestQuickEngineMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delays {
			d := Time(d)
			e.At(d, Func(func(int) {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			}), 0)
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Resource serves any request sequence with total busy time
// equal to the sum of durations, and completions never overlap.
func TestQuickResourceSerialization(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine()
		r := NewResource(e)
		var total Duration
		var prevEnd Time
		ok := true
		for _, d := range durs {
			dur := Duration(d)
			total += dur
			end := r.Acquire(dur, nil, nil, 0)
			if end < prevEnd {
				ok = false
			}
			prevEnd = end
		}
		e.Run()
		return ok && r.BusyTime() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth >= 5 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				d := Duration(rng.Intn(1000))
				e.After(d, Func(func(int) { spawn(depth + 1) }), 0)
			}
		}
		e.At(0, Func(func(int) { spawn(0) }), 0)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := NewEngine()
	ev := e.At(50, Func(func(int) {}), 0)
	if ev.Time() != 50 {
		t.Fatalf("event time = %v", ev.Time())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("fired = %d", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d", e.Pending())
	}
}

func TestAfterClampsNegativeAndSaturates(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(-100, Func(func(int) { at = e.Now() }), 0)
	e.Run()
	if at != 0 {
		t.Fatalf("negative delay fired at %v", at)
	}
	// Near-MaxTime saturation.
	e2 := NewEngine()
	e2.At(MaxTime-5, Func(func(int) {
		e2.After(100, Func(func(int) {}), 0) // must clamp, not overflow
	}), 0)
	e2.RunUntil(MaxTime - 5)
	if e2.Pending() != 1 {
		t.Fatalf("pending = %d", e2.Pending())
	}
}

func TestRunUntilCanceledHead(t *testing.T) {
	e := NewEngine()
	ev := e.At(5, Func(func(int) {}), 0)
	e.At(10, Func(func(int) {}), 0)
	ev.Cancel()
	e.RunUntil(7)
	if e.Fired() != 0 {
		t.Fatal("canceled head fired")
	}
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

// tally is a handler bound once for many events: it records each
// event's argument.
type tally []int

func (t *tally) Fire(id int) { *t = append(*t, id) }

// TestEngineArgEventsRecycle: events carrying an argument fire in
// (time, seq) order, each with its own argument; their records are
// reused once they fire; and a stale Cancel through a fired event's
// handle leaves the event that now holds its record alone.
func TestEngineArgEventsRecycle(t *testing.T) {
	e := NewEngine()
	var got tally
	for _, c := range []struct {
		at Time
		id int
	}{{20, 3}, {10, 1}, {20, 4}, {10, 2}, {15, 5}} {
		e.At(c.at, &got, c.id)
	}
	e.Run()
	if want := []int{1, 2, 5, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if len(e.free) != 5 {
		t.Fatalf("%d records recycled, want 5", len(e.free))
	}

	old := e.At(30, &got, 6)
	e.Run()
	got = got[:0]
	fresh := e.At(40, &got, 7)
	if fresh.ev != old.ev {
		t.Fatal("the fired event's record was not reused")
	}
	old.Cancel()
	e.Run()
	if !slices.Equal(got, []int{7}) {
		t.Fatalf("after a stale Cancel fired %v, want [7]", got)
	}
}
