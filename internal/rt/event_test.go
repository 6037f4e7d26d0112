package rt

import (
	"testing"

	"heteropart/internal/mem"
	"heteropart/internal/task"
	"heteropart/internal/trace"
)

// TestEmitConsumersOffAllocatesNothing: with no trace, metrics or span
// sink attached, emitting one event of every kind only updates
// Result's counters (a chunk's tallies wait in its instance's run state
// until the run completes). So emit must not allocate: no label is
// built and no event escapes to the heap.
func TestEmitConsumersOffAllocatesNothing(t *testing.T) {
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	var p task.Plan
	in := p.Submit(flopsKernel("k", buf, 1e6), 0, 1000, task.Unpinned, -1)
	res := &Result{}
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
	if res.TransferCount != 101 || res.Decisions != 101 || res.HtoDBytes != 101*8000 {
		t.Fatalf("result missed events: %+v", res)
	}
}
