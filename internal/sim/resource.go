package sim

// Resource models a serially-shared facility (a PCIe link direction, a
// DMA engine, a GPU command queue). Requests are served FIFO: each
// acquisition holds the resource for a caller-specified duration, and the
// completion callback fires when the hold ends.
//
// Resource keeps its own "free at" horizon, so Acquire is O(log n) in the
// engine queue and there is no explicit waiter list: FIFO order follows
// from the monotonically advancing horizon.
//
// A resource carries no name: a runtime builds its link resources on
// every execution, and identifies them by where it keeps them.
type Resource struct {
	eng    *Engine
	freeAt Time
	// Busy accounting for utilization stats.
	busy Duration
}

// NewResource creates a resource bound to an engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// BusyTime reports the cumulative virtual time the resource was held.
func (r *Resource) BusyTime() Duration { return r.busy }

// FreeAt reports the earliest time a new request could start service.
func (r *Resource) FreeAt() Time {
	if r.freeAt < r.eng.Now() {
		return r.eng.Now()
	}
	return r.freeAt
}

// Acquire enqueues a hold of the resource for dur, starting as soon as
// all previously enqueued holds finish. onStart (optional) fires with
// arg when service begins; onDone (optional) fires with arg when the
// hold ends. It returns the completion time.
func (r *Resource) Acquire(dur Duration, onStart, onDone Handler, arg int) Time {
	start := r.FreeAt()
	end := start + dur
	r.freeAt = end
	r.busy += dur
	if onStart != nil {
		r.eng.At(start, onStart, arg)
	}
	if onDone != nil {
		r.eng.At(end, onDone, arg)
	}
	return end
}
