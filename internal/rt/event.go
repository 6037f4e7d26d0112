package rt

import (
	"fmt"

	"heteropart/internal/mem"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/trace"
)

// event is one runtime occurrence: a chunk execution, a transfer, a
// scheduling decision or a taskwait. Each occurrence builds exactly one
// event on the stack and hands it to emit, the runtime's single
// accounting path.
type event struct {
	kind       trace.Kind
	start, end sim.Time
	// dev is the executing device of a chunk, the device a transfer is
	// reported against (the accelerator of a host transfer, the
	// destination of a P2P one), the chosen device of a decision, and
	// -1 for a taskwait.
	dev int
	// in is the instance of a chunk or decision.
	in *task.Instance
	// busy is a chunk's service demand (end - start differs from it on
	// the processor-sharing host) or a decision's modeled overhead.
	busy sim.Duration
	// tr is a transfer's payload; toDev and p2p give its direction (a
	// P2P transfer lands on a device, so it is also toDev).
	tr         mem.Transfer
	toDev, p2p bool
	// flushed reports whether a taskwait moved data back to the host.
	flushed bool
}

// Transfer directions, indexing dirName and the per-direction metric
// series.
const (
	dirDtoH = iota
	dirHtoD
	dirP2P
)

// dirName names each direction in transfer span names; lowercased, it
// is the dir label of the rt_transfer* series.
var dirName = [3]string{"DtoH", "HtoD", "P2P"}

// dir classifies a transfer event's direction.
func (ev *event) dir() int {
	switch {
	case ev.p2p:
		return dirP2P
	case ev.toDev:
		return dirHtoD
	}
	return dirDtoH
}

// emit accounts for one occurrence: it folds the event into Result's
// counters, then hands it to the metrics, span and trace consumers,
// each of which is a no-op when its sink is not attached.
func (e *engine) emit(ev *event) {
	e.res.add(ev)
	e.mx.add(ev)
	// Result and metrics count every occurrence; spans and the trace
	// draw only timed ones, so a decision without overhead and a
	// taskwait that moved no data stay off the timeline.
	if (ev.kind == trace.Decision && ev.busy <= 0) || (ev.kind == trace.Barrier && !ev.flushed) {
		return
	}
	e.sp.add(ev)
	e.record(ev)
}

// add folds one event into the result's counters. A chunk's device,
// elements and service demand stay in its instance's run state, from
// which engine.tally fills the result's maps once the run completes.
func (r *Result) add(ev *event) {
	switch ev.kind {
	case trace.Transfer:
		r.TransferCount++
		switch bytes := ev.tr.Bytes(); ev.dir() {
		case dirP2P:
			r.P2PBytes += bytes
		case dirHtoD:
			r.HtoDBytes += bytes
		default:
			r.DtoHBytes += bytes
		}
	case trace.Decision:
		r.Decisions++
	}
}

// record is the trace consumer: it labels a drawn event and appends it
// to the configured trace. Labels are built only here, so a run without
// a trace formats none.
func (e *engine) record(ev *event) {
	if e.cfg.Trace == nil {
		return
	}
	r := trace.Record{Kind: ev.kind, Start: ev.start, End: ev.end, Device: ev.dev}
	switch ev.kind {
	case trace.TaskRun:
		r.Label, r.Kernel, r.Elems = ev.in.String(), ev.in.Kernel.Name, ev.in.Elems()
	case trace.Transfer:
		r.Label, r.Bytes, r.ToDev, r.P2P = ev.tr.Buf.Name, ev.tr.Bytes(), ev.toDev, ev.p2p
		if ev.p2p {
			r.Label = fmt.Sprintf("%s(p2p %d->%d)", ev.tr.Buf.Name, int(ev.tr.From), int(ev.tr.To))
		}
	case trace.Decision:
		r.Label = ev.in.String()
	case trace.Barrier:
		r.Label = "taskwait-flush"
	}
	e.cfg.Trace.Add(r)
}
