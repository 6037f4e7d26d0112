// Package telemetry is the causal-span layer of the observability
// stack: a hierarchical record of *why* time was spent, complementing
// internal/metrics (how much, aggregated) and internal/trace (what
// happened inside one simulated run, in virtual time).
//
// Spans form a tree — sweep → run → plan/decide → execute → phase →
// chunk-execute / transfer — with parent/child IDs, so makespan can be
// attributed to decisions: which kernel ran where, what each partition
// cost, how much of a sweep went to deciding versus executing.
//
// Design constraints, mirroring the rest of the observability layer:
//
//   - nil-safe: every method on a nil *Tracer is a no-op and Begin
//     returns the zero SpanID, so instrumentation sites never branch;
//   - zero-allocation when disabled: a nil tracer allocates nothing on
//     the hot path (guarded by BenchmarkSpanDisabled and
//     TestSpanDisabledZeroAlloc);
//   - two clocks: every span carries wall-clock nanoseconds since the
//     tracer's epoch (spans crossing simulations — sweeps, planning —
//     live only here), and spans inside a simulated run additionally
//     carry their virtual interval;
//   - deterministic export given the same spans: exporters sort by
//     (ID), never iterate maps.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"heteropart/internal/sim"
)

// SpanID identifies a span within one tracer; 0 means "no span" and is
// the safe parent for roots.
type SpanID int64

// Kind classifies a span in the taxonomy (DESIGN.md §8).
type Kind uint8

const (
	// KindSweep covers one RunAll fan-out over the worker pool.
	KindSweep Kind = iota
	// KindRun covers one spec execution end to end.
	KindRun
	// KindPlan covers a strategy's decide step (Glinda profiling
	// included).
	KindPlan
	// KindExecute covers carrying a decided plan out.
	KindExecute
	// KindTrain covers DP-Perf's excluded training pass.
	KindTrain
	// KindPhase covers one kernel invocation of the unrolled program.
	KindPhase
	// KindChunk covers one task-instance execution.
	KindChunk
	// KindTransfer covers one host<->device data movement.
	KindTransfer
	// KindDecide covers one dynamic scheduling decision.
	KindDecide
	// KindBarrier covers a taskwait drain + flush.
	KindBarrier
	// KindProfile covers one Glinda profiling pass.
	KindProfile
	// KindWarmup covers DP-Perf's in-run profiling gate, from the
	// first ready instance to the first rate-based placement.
	KindWarmup
	// KindRequest covers one HTTP request into the matchmaking
	// service, from admission to response.
	KindRequest
	// KindFault marks one injected fault firing (crash, transfer
	// failure, device loss) — a point event at the fault's virtual
	// time.
	KindFault
)

var kindNames = [...]string{
	"sweep", "run", "plan", "execute", "train", "phase", "chunk",
	"transfer", "decide", "barrier", "profile", "warmup", "request",
	"fault",
}

// String names the kind as exported span dumps do.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind name, keeping span dumps
// self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind name, rejecting any name String does not
// produce: a corrupted dump fails to decode instead of guessing a kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for i, n := range kindNames {
			if n == s {
				*k = Kind(i)
				return nil
			}
		}
	}
	return fmt.Errorf("telemetry: unknown span kind %s", data)
}

// Attr is one key/value annotation on a span. A slice (not a map)
// keeps encoding order stable.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one recorded interval.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Name   string `json:"name"`
	// WallStart/WallEnd are wall-clock nanoseconds since the tracer's
	// epoch. WallEnd is 0 for spans still open at export time.
	WallStart int64 `json:"wall_start_ns"`
	WallEnd   int64 `json:"wall_end_ns,omitempty"`
	// VStart/VEnd are the span's virtual interval, in simulated
	// nanoseconds; set only for spans inside a simulated run
	// (HasVirtual reports presence — a span may legitimately cover
	// virtual instant 0).
	VStart     int64  `json:"vstart_ns,omitempty"`
	VEnd       int64  `json:"vend_ns,omitempty"`
	HasVirtual bool   `json:"virtual,omitempty"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// WallDur is the span's wall-clock duration (0 while open).
func (s Span) WallDur() int64 {
	if s.WallEnd == 0 {
		return 0
	}
	return s.WallEnd - s.WallStart
}

// VDur is the span's virtual duration (0 when no virtual interval).
func (s Span) VDur() int64 {
	if !s.HasVirtual {
		return 0
	}
	return s.VEnd - s.VStart
}

// Tracer records spans. A nil *Tracer is fully inert: every method is
// a no-op, Begin/Emit return 0, and nothing allocates.
type Tracer struct {
	epoch time.Time

	mu   sync.Mutex
	next SpanID
	list []*Span
	byID map[SpanID]*Span
}

// New returns an empty tracer whose wall clock starts now.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), byID: make(map[SpanID]*Span)}
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Begin opens a span under parent (0 for a root) and returns its ID.
// Safe on nil (returns 0).
func (t *Tracer) Begin(parent SpanID, kind Kind, name string) SpanID {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	sp := &Span{ID: t.next, Parent: parent, Kind: kind, Name: name, WallStart: now}
	t.list = append(t.list, sp)
	t.byID[sp.ID] = sp
	return sp.ID
}

// End closes a span. Ending an unknown or already-closed span is a
// no-op. Safe on nil.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.byID[id]; sp != nil && sp.WallEnd == 0 {
		sp.WallEnd = now
	}
}

// Annotate attaches a key/value attribute to an open or closed span.
// Safe on nil.
func (t *Tracer) Annotate(id SpanID, key, value string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.byID[id]; sp != nil {
		sp.Attrs = append(sp.Attrs, Attr{K: key, V: value})
	}
}

// Virtual sets a span's virtual interval. Safe on nil.
func (t *Tracer) Virtual(id SpanID, vstart, vend sim.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.byID[id]; sp != nil {
		sp.VStart, sp.VEnd, sp.HasVirtual = int64(vstart), int64(vend), true
	}
}

// Emit records a completed span with a virtual interval in one call —
// the form the runtime uses for chunk, transfer and decision spans,
// which it learns about at their (virtual) completion. Safe on nil.
func (t *Tracer) Emit(parent SpanID, kind Kind, name string, vstart, vend sim.Time) SpanID {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	sp := &Span{
		ID: t.next, Parent: parent, Kind: kind, Name: name,
		WallStart: now, WallEnd: now,
		VStart: int64(vstart), VEnd: int64(vend), HasVirtual: true,
	}
	t.list = append(t.list, sp)
	t.byID[sp.ID] = sp
	return sp.ID
}

// parentKey is the context key WithParent stores a span parent under.
type parentKey struct{}

// WithParent returns ctx carrying id as the parent of the spans that
// work started under ctx begins — how a service request's span adopts
// the runner's run and plan spans. A zero id returns ctx unchanged.
func WithParent(ctx context.Context, id SpanID) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, id)
}

// ParentFrom returns the span parent ctx carries, or 0 for none.
func ParentFrom(ctx context.Context) SpanID {
	id, _ := ctx.Value(parentKey{}).(SpanID)
	return id
}

// Len reports the number of recorded spans. Safe on nil.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.list)
}

// Spans returns a copy of every span, in ID order (the recording
// order). Safe on nil (empty).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.list))
	for i, sp := range t.list {
		out[i] = *sp
		if len(sp.Attrs) > 0 {
			out[i].Attrs = append([]Attr(nil), sp.Attrs...)
		}
	}
	return out
}
