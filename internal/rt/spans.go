package rt

import (
	"sort"
	"strconv"

	"heteropart/internal/sim"
	"heteropart/internal/telemetry"
	"heteropart/internal/trace"
)

// SpanPhase describes one kernel invocation of the submitted plan for
// span attribution: task-instance IDs are assigned sequentially at
// submission, so an ordered list of per-phase instance counts
// partitions the ID space and lets the runtime parent each chunk span
// to its phase span without touching the hot path when telemetry is
// off.
type SpanPhase struct {
	// Name labels the phase (normally the kernel name).
	Name string
	// Instances is the number of task instances the phase submits.
	Instances int
}

// rtSpans is the runtime's span bundle, mirroring rtMetrics: resolved
// once at Execute setup, nil (telemetry off) makes every method a
// no-op and the instrumentation sites never branch or allocate.
type rtSpans struct {
	tr     *telemetry.Tracer
	parent telemetry.SpanID

	// bound[i] is the exclusive instance-ID upper bound of phase i;
	// span[i] its phase span, opened at setup so chunk spans can parent
	// to it, closed at finish with the phase's virtual extent.
	bound []int
	span  []telemetry.SpanID
	vmin  []sim.Time
	vmax  []sim.Time
	seen  []bool
}

// newRTSpans opens the phase spans. Returns nil (fully inert) when the
// config carries no tracer.
func newRTSpans(cfg Config) *rtSpans {
	if cfg.Spans == nil {
		return nil
	}
	n := len(cfg.SpanPhases)
	s := &rtSpans{
		tr: cfg.Spans, parent: cfg.SpanParent,
		bound: make([]int, 0, n), span: make([]telemetry.SpanID, 0, n),
		vmin: make([]sim.Time, n), vmax: make([]sim.Time, n), seen: make([]bool, n),
	}
	cum := 0
	for i, ph := range cfg.SpanPhases {
		cum += ph.Instances
		s.bound = append(s.bound, cum)
		id := s.tr.Begin(cfg.SpanParent, telemetry.KindPhase, ph.Name)
		s.tr.Annotate(id, "phase", strconv.Itoa(i))
		s.span = append(s.span, id)
	}
	return s
}

// phaseIdx maps an instance ID to its phase index, -1 when the ID is
// outside the declared phase table (plans submitted without one).
func (s *rtSpans) phaseIdx(id int) int {
	i := sort.SearchInts(s.bound, id+1)
	if i >= len(s.bound) {
		return -1
	}
	return i
}

// under resolves the parent span for an instance's events and extends
// its phase's virtual extent.
func (s *rtSpans) under(instID int, start, end sim.Time) telemetry.SpanID {
	i := s.phaseIdx(instID)
	if i < 0 {
		return s.parent
	}
	if !s.seen[i] || start < s.vmin[i] {
		s.vmin[i] = start
	}
	if !s.seen[i] || end > s.vmax[i] {
		s.vmax[i] = end
	}
	s.seen[i] = true
	return s.span[i]
}

// add is the span consumer of emit; it sees only drawn events.
func (s *rtSpans) add(ev *event) {
	if s == nil {
		return
	}
	switch ev.kind {
	case trace.TaskRun:
		in := ev.in
		id := s.tr.Emit(s.under(in.ID, ev.start, ev.end), telemetry.KindChunk, in.String(), ev.start, ev.end)
		s.tr.Annotate(id, "dev", strconv.Itoa(ev.dev))
		s.tr.Annotate(id, "kernel", in.Kernel.Name)
		s.tr.Annotate(id, "elems", strconv.FormatInt(in.Elems(), 10))
	case trace.Transfer:
		id := s.tr.Emit(s.parent, telemetry.KindTransfer, dirName[ev.dir()]+" "+ev.tr.Buf.Name, ev.start, ev.end)
		s.tr.Annotate(id, "dev", strconv.Itoa(ev.dev))
		s.tr.Annotate(id, "bytes", strconv.FormatInt(ev.tr.Bytes(), 10))
	case trace.Decision:
		id := s.tr.Emit(s.under(ev.in.ID, ev.start, ev.end), telemetry.KindDecide, "decide "+ev.in.String(), ev.start, ev.end)
		s.tr.Annotate(id, "dev", strconv.Itoa(ev.dev))
	case trace.Barrier:
		s.tr.Emit(s.parent, telemetry.KindBarrier, "taskwait-flush", ev.start, ev.end)
	}
}

// fault records one injected failure as a point event at its virtual
// time.
func (s *rtSpans) fault(kind, label string, at sim.Time) {
	if s == nil {
		return
	}
	id := s.tr.Emit(s.parent, telemetry.KindFault, kind+" "+label, at, at)
	s.tr.Annotate(id, "fault", kind)
}

// finish closes the phase spans with their observed virtual extents.
func (s *rtSpans) finish() {
	if s == nil {
		return
	}
	for i, id := range s.span {
		if s.seen[i] {
			s.tr.Virtual(id, s.vmin[i], s.vmax[i])
		}
		s.tr.End(id)
	}
}
