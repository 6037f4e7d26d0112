package rt

import (
	"heteropart/internal/sim"
	"heteropart/internal/task"
)

// psExec is an egalitarian processor-sharing executor: the k instances
// currently running on the device each progress at 1/k of the device's
// full capability. This models a multicore whose aggregate compute and
// memory bandwidth is shared by however many worker threads are
// actually busy — a partially loaded socket runs each task faster than
// a fully loaded one, unlike a static peak/m split. The slot counter in
// the engine still caps concurrency at the thread count m.
type psExec struct {
	eng  *sim.Engine
	jobs []psJob
	// done is fire's scratch list of drained jobs.
	done  []psJob
	last  sim.Time
	timer sim.Event
	// fireFn is the fire method value, bound once so arming the timer
	// allocates nothing.
	fireFn func()
	// hook receives the completed instance, its start time and its
	// full-speed service demand (the dedicated-equivalent duration).
	hook func(in *task.Instance, started sim.Time, demand sim.Duration)
	// batchEnd fires once after each completion batch (simultaneous
	// completions are common under equal sharing), letting the caller
	// dispatch freed capacity breadth-first rather than first-come.
	batchEnd func()
}

type psJob struct {
	in *task.Instance
	// remaining is the service demand left, in nanoseconds at full
	// device speed.
	remaining float64
	demand    sim.Duration
	started   sim.Time
}

func newPSExec(eng *sim.Engine, hook func(in *task.Instance, started sim.Time, demand sim.Duration), batchEnd func()) *psExec {
	p := &psExec{eng: eng, hook: hook, batchEnd: batchEnd}
	p.fireFn = p.fire
	return p
}

// Add admits an instance with the given full-speed service demand.
// Jobs live in a slice in admission order, so every float operation
// and completion tie resolves identically across runs.
func (p *psExec) Add(in *task.Instance, demand sim.Duration) {
	p.advance()
	p.jobs = append(p.jobs, psJob{in: in, remaining: float64(demand), demand: demand, started: p.eng.Now()})
	p.reschedule()
}

// advance charges elapsed virtual time against every running job at
// the current sharing rate.
func (p *psExec) advance() {
	now := p.eng.Now()
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

// reschedule arms the timer for the earliest completion.
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
	wait := sim.Duration(minRem*float64(k) + 0.999)
	p.timer = p.eng.After(wait, p.fireFn)
}

// fire completes every job whose demand has drained.
func (p *psExec) fire() {
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
	for _, j := range done {
		p.hook(j.in, j.started, j.demand)
	}
	clear(done)
	p.done = done[:0]
	if len(done) > 0 && p.batchEnd != nil {
		p.batchEnd()
	}
	p.reschedule()
}
