package rt

import (
	"fmt"

	"heteropart/internal/apierr"
	"heteropart/internal/sim"
	"heteropart/internal/task"
)

// errPastEnd fails work that would complete at or past sim.MaxTime —
// host work, an accelerator chunk or a transfer alike: no run reaches
// that time, so the size that asked for it is refused as invalid
// options.
func errPastEnd(what string) error {
	return fmt.Errorf("rt: %s would finish past the end of virtual time (%v): %w",
		what, sim.MaxTime, apierr.ErrOptionsInvalid)
}

// psExec is an egalitarian processor-sharing executor: the k instances
// currently running on the device each progress at 1/k of the device's
// full capability. This models a multicore whose aggregate compute and
// memory bandwidth is shared by however many worker threads are
// actually busy — a partially loaded socket runs each task faster than
// a fully loaded one, unlike a static peak/m split. The slot counter in
// the engine still caps concurrency at the thread count m.
type psExec struct {
	// e is the engine the host belongs to; drained jobs complete there.
	e    *engine
	jobs []psJob
	// done is Fire's scratch list of drained jobs.
	done []psJob
	last sim.Time
	// timer is the pending completion event; psExec is its handler.
	timer sim.Event
}

type psJob struct {
	in *task.Instance
	// remaining is the service demand left, in nanoseconds at full
	// device speed.
	remaining float64
	demand    sim.Duration
	started   sim.Time
}

// Add admits an instance with the given full-speed service demand.
// Jobs live in a slice in admission order, so every float operation
// and completion tie resolves identically across runs.
func (p *psExec) Add(in *task.Instance, demand sim.Duration) {
	p.advance()
	p.jobs = append(p.jobs, psJob{in: in, remaining: float64(demand), demand: demand, started: p.e.eng.Now()})
	p.reschedule()
}

// advance charges elapsed virtual time against every running job at
// the current sharing rate.
func (p *psExec) advance() {
	now := p.e.eng.Now()
	elapsed := float64(now - p.last)
	p.last = now
	k := len(p.jobs)
	if k == 0 || elapsed <= 0 {
		return
	}
	each := elapsed / float64(k)
	for i := range p.jobs {
		p.jobs[i].remaining -= each
	}
}

// reschedule arms the timer for the earliest completion. A completion
// past sim.MaxTime can never happen, so it fails the run with
// errPastEnd instead.
func (p *psExec) reschedule() {
	p.timer.Cancel()
	k := len(p.jobs)
	if k == 0 {
		return
	}
	minRem := -1.0
	for _, j := range p.jobs {
		if minRem < 0 || j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	wait := minRem*float64(k) + 0.999
	if wait >= float64(sim.MaxTime-p.e.eng.Now()) {
		p.e.eng.Fail(errPastEnd("host work"))
		return
	}
	p.timer = p.e.eng.After(sim.Duration(wait), p, 0)
}

// Fire completes every job whose demand has drained when the timer
// fires.
func (p *psExec) Fire(int) {
	p.advance()
	done := p.done[:0]
	live := p.jobs[:0]
	for _, j := range p.jobs {
		if j.remaining <= 0.5 {
			done = append(done, j)
		} else {
			live = append(live, j)
		}
	}
	clear(p.jobs[len(live):])
	p.jobs = live
	// Complete in instance-ID order (admission order can interleave
	// with completion order; ID order matches the dependence graph).
	for i := 0; i < len(done); i++ { // insertion sort (tiny n)
		for j := i; j > 0 && done[j].in.ID < done[j-1].in.ID; j-- {
			done[j], done[j-1] = done[j-1], done[j]
		}
	}
	// Each job completes with its start time and its full-speed service
	// demand (the dedicated-equivalent duration). Simultaneous
	// completions are common under equal sharing, so the batch
	// dispatches the capacity it freed once, breadth-first rather than
	// first-come.
	e := p.e
	e.inBatch = true
	for _, j := range done {
		e.complete(j.in, e.devs[0], j.started, j.demand)
	}
	e.inBatch = false
	clear(done)
	p.done = done[:0]
	if len(done) > 0 {
		e.dispatchAll()
	}
	p.reschedule()
}
