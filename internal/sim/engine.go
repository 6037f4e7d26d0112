// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in integer nanoseconds and
// dispatches events in (time, sequence) order, so two runs of the same
// program produce bit-identical traces regardless of host scheduling.
// Everything executes on the calling goroutine; no locks are needed.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual duration to float seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds converts a virtual duration to float milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Microseconds converts a virtual duration to float microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// DurationOf converts float seconds into a virtual Duration, rounding to
// the nearest nanosecond and saturating instead of overflowing.
func DurationOf(seconds float64) Duration {
	if seconds <= 0 {
		return 0
	}
	ns := seconds * 1e9
	if ns >= float64(math.MaxInt64) {
		return MaxTime
	}
	return Duration(ns + 0.5)
}

// event is one scheduled callback. The engine recycles records once
// they fire or are reaped, bumping gen, so a handle issued for an
// earlier use of the record no longer matches it.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	gen  uint64
	dead bool
}

// Event is a handle to a scheduled callback. Handles are values: the
// zero Event refers to nothing, and a handle whose callback already
// fired or was canceled stays safe to use.
type Event struct {
	ev  *event
	gen uint64
	at  Time
}

// Cancel prevents a pending event from firing. Canceling an already-fired
// or already-canceled event is a no-op.
func (h Event) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.dead = true
	}
}

// Time reports when the event is scheduled to fire.
func (h Event) Time() Time { return h.at }

// before orders events by (time, sequence).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of pending events.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	// free holds recycled event records for reuse by At.
	free   []*event
	fired  uint64
	halted bool
	// err records the first scheduling fault (an event scheduled in the
	// past). It halts the run loop; callers inspect it through Err.
	err error
	// wall accumulates the real time spent inside Run/RunUntil, for
	// the observability layer's virtual-vs-wall clock ratio. Tracking
	// costs two monotonic clock reads per Run call, not per event.
	wall time.Duration
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued (including canceled ones
// that have not been reaped yet).
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is always a logic error in a discrete-event model: the engine
// records the fault (visible through Err), halts the run loop, and
// returns a handle to nothing, which stays safe to use.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		if e.err == nil {
			e.err = fmt.Errorf("sim: scheduling at %v before now %v", t, e.now)
		}
		e.Halt()
		return Event{at: t}
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.dead = t, e.seq, fn, false
	e.seq++
	e.queue.push(ev)
	return Event{ev: ev, gen: ev.gen, at: t}
}

// recycle retires a record taken off the queue: its handles go stale
// and the record becomes available to At.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Err reports the first scheduling fault, or nil. A non-nil error means
// the run loop halted early and the simulation state is suspect.
func (e *Engine) Err() error { return e.err }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	if e.now > MaxTime-d {
		return e.At(MaxTime, fn)
	}
	return e.At(e.now+d, fn)
}

// Halt stops the run loop after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// Step dispatches the single earliest pending event. It returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		at, fn, dead := ev.at, ev.fn, ev.dead
		e.recycle(ev)
		if dead {
			continue
		}
		e.now = at
		e.fired++
		fn()
		return true
	}
	return false
}

// WallTime reports the cumulative real time spent inside Run and
// RunUntil. Dividing virtual Now by WallTime gives the simulation's
// time-compression ratio.
func (e *Engine) WallTime() time.Duration { return e.wall }

// Run dispatches events until the queue drains or Halt is called.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	start := time.Now()
	e.halted = false
	for !e.halted && e.err == nil && e.Step() {
	}
	e.wall += time.Since(start)
	return e.now
}

// RunUntil dispatches events with timestamps <= deadline. Events beyond
// the deadline remain queued. The clock is left at min(deadline, last
// fired event time) — it never jumps forward past fired events.
func (e *Engine) RunUntil(deadline Time) Time {
	start := time.Now()
	defer func() { e.wall += time.Since(start) }()
	e.halted = false
	for !e.halted && e.err == nil {
		// Peek.
		for len(e.queue) > 0 && e.queue[0].dead {
			e.recycle(e.queue.pop())
		}
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	return e.now
}
