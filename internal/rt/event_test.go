package rt

import (
	"testing"

	"heteropart/internal/mem"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/trace"
)

// TestEmitConsumersOffAllocatesNothing: with no trace, metrics or span
// sink attached, emitting one event of every kind only updates Result,
// whose map entries exist after the first round. So emit must not
// allocate: no label is built and no event escapes to the heap.
func TestEmitConsumersOffAllocatesNothing(t *testing.T) {
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	var p task.Plan
	in := p.Submit(flopsKernel("k", buf, 1e6), 0, 1000, task.Unpinned, -1)
	res := &Result{
		ElemsByDevice:     make(map[int]int64),
		ElemsByKernel:     make(map[string]map[int]int64),
		InstancesByDevice: make(map[int]int),
		DeviceBusy:        make(map[int]sim.Duration),
	}
	e := &engine{res: res}
	xfer := mem.Transfer{Buf: buf, Interval: mem.Interval{Lo: 0, Hi: 1000}, From: mem.HostSpace, To: 1}
	got := testing.AllocsPerRun(100, func() {
		e.emit(&event{kind: trace.TaskRun, end: 10, dev: 1, in: in, busy: 10})
		e.emit(&event{kind: trace.Transfer, end: 5, dev: 1, tr: xfer, toDev: true})
		e.emit(&event{kind: trace.Decision, end: 2, dev: 1, in: in, busy: 2})
		e.emit(&event{kind: trace.Barrier, end: 7, dev: -1, flushed: true})
	})
	if got != 0 {
		t.Fatalf("emit with every consumer off: %.0f allocations per round, want 0", got)
	}
	if res.InstancesByDevice[1] != 101 || res.Decisions != 101 || res.HtoDBytes != 101*8000 {
		t.Fatalf("result missed events: %+v", res)
	}
}
