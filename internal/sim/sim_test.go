package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
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
		e.At(5, func() { got = append(got, i) })
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
	e.After(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
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
	first := e.At(10, func() {})
	e.Run()
	fired := false
	second := e.At(20, func() { fired = true })
	first.Cancel()
	e.Run()
	if !fired {
		t.Fatal("stale Cancel of a fired event canceled its successor")
	}

	canceled := e.At(30, func() { t.Error("canceled event fired") })
	canceled.Cancel()
	e.Run() // reaps the canceled record
	fired = false
	e.At(40, func() { fired = true })
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
	e.At(100, func() {
		ev := e.At(50, func() { t.Error("past event fired") })
		ev.Cancel() // the returned handle must stay safe to use
		if ev.Time() != 50 {
			t.Errorf("past-event handle time = %v, want 50", ev.Time())
		}
	})
	e.At(200, func() { reached = true })
	e.Run()
	if e.Err() == nil {
		t.Fatal("scheduling in the past did not set Err")
	}
	if reached {
		t.Error("run loop continued past the scheduling fault")
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++; e.Halt() })
	e.At(3, func() { n++ })
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
		e.At(at, func() { got = append(got, at) })
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
	r := NewResource(e, "link")
	var done []int
	end1 := r.Acquire(100, nil, func() { done = append(done, 1) })
	end2 := r.Acquire(50, nil, func() { done = append(done, 2) })
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
	r := NewResource(e, "link")
	r.Acquire(10, nil, nil)
	var start Time
	e.At(100, func() {
		r.Acquire(5, func() { start = e.Now() }, nil)
	})
	e.Run()
	if start != 100 {
		t.Fatalf("second hold started at %v, want 100 (resource was idle)", start)
	}
}

func TestSlotsParallelism(t *testing.T) {
	e := NewEngine()
	s, err := NewSlots(e, "cpu", 2)
	if err != nil {
		t.Fatal(err)
	}
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Acquire(100, nil, func(int) { ends = append(ends, e.Now()) })
	}
	e.Run()
	// Two slots: jobs finish at 100,100,200,200.
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestSlotsRejectsZeroWidth(t *testing.T) {
	e := NewEngine()
	if _, err := NewSlots(e, "x", 0); err == nil {
		t.Error("NewSlots(0) did not error")
	}
}

func TestSlotsStartCallbackGetsSlotIndex(t *testing.T) {
	e := NewEngine()
	s, err := NewSlots(e, "cpu", 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		s.Acquire(10, func(slot int) { seen[slot] = true }, nil)
	}
	e.Run()
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Fatalf("slot %d never used: %v", i, seen)
		}
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
			e.At(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
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
		r := NewResource(e, "x")
		var total Duration
		var prevEnd Time
		ok := true
		for _, d := range durs {
			dur := Duration(d)
			total += dur
			end := r.Acquire(dur, nil, nil)
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

// Property: Slots(k) never runs more than k holds concurrently — the
// makespan of n equal jobs of length L is ceil(n/k)*L.
func TestQuickSlotsMakespan(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		kk := int(k%4) + 1
		nn := int(n % 32)
		e := NewEngine()
		s, err := NewSlots(e, "p", kk)
		if err != nil {
			return false
		}
		const L = 100
		var end Time
		for i := 0; i < nn; i++ {
			s.Acquire(L, nil, func(int) { end = e.Now() })
		}
		e.Run()
		want := Time((nn + kk - 1) / kk * L)
		return end == want || nn == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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
				e.After(d, func() { spawn(depth + 1) })
			}
		}
		e.At(0, func() { spawn(0) })
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
	ev := e.At(50, func() {})
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
	e.After(-100, func() { at = e.Now() })
	e.Run()
	if at != 0 {
		t.Fatalf("negative delay fired at %v", at)
	}
	// Near-MaxTime saturation.
	e2 := NewEngine()
	e2.At(MaxTime-5, func() {
		e2.After(100, func() {}) // must clamp, not overflow
	})
	e2.RunUntil(MaxTime - 5)
	if e2.Pending() != 1 {
		t.Fatalf("pending = %d", e2.Pending())
	}
}

func TestResourceAndSlotsNames(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link")
	if r.Name() != "link" {
		t.Fatal("resource name")
	}
	s, err := NewSlots(e, "cpu", 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "cpu" || s.Width() != 3 {
		t.Fatal("slots name/width")
	}
	if s.BusyTime() != 0 {
		t.Fatal("initial busy")
	}
	s.Acquire(10, nil, nil)
	if s.NextFree() != 0 { // two slots still free now
		t.Fatalf("next free = %v", s.NextFree())
	}
	if s.BusyTime() != 10 {
		t.Fatalf("busy = %v", s.BusyTime())
	}
}

func TestRunUntilCanceledHead(t *testing.T) {
	e := NewEngine()
	ev := e.At(5, func() {})
	e.At(10, func() {})
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
