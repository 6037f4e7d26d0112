package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanTree(t *testing.T) {
	tr := New()
	sweep := tr.Begin(0, KindSweep, "sweep")
	run := tr.Begin(sweep, KindRun, "BlackScholes/SP-Single")
	tr.Annotate(run, "n", "65536")
	plan := tr.Begin(run, KindPlan, "plan SP-Single")
	tr.End(plan)
	chunk := tr.Emit(run, KindChunk, "bs[0,100)", 10, 30)
	tr.End(run)
	tr.End(sweep)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byID := map[SpanID]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if byID[run].Parent != sweep || byID[plan].Parent != run || byID[chunk].Parent != run {
		t.Fatalf("parentage wrong: %+v", spans)
	}
	if byID[sweep].WallEnd == 0 || byID[run].WallEnd == 0 {
		t.Fatal("ended spans must have WallEnd set")
	}
	if c := byID[chunk]; !c.HasVirtual || c.VStart != 10 || c.VEnd != 30 || c.VDur() != 20 {
		t.Fatalf("chunk virtual interval wrong: %+v", c)
	}
	if len(byID[run].Attrs) != 1 || byID[run].Attrs[0].K != "n" {
		t.Fatalf("annotation lost: %+v", byID[run].Attrs)
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(0, KindRun, "x")
	if id != 0 {
		t.Fatalf("nil Begin = %d, want 0", id)
	}
	tr.End(id)
	tr.Annotate(id, "k", "v")
	tr.Virtual(id, 0, 1)
	if tr.Emit(0, KindChunk, "c", 0, 1) != 0 {
		t.Fatal("nil Emit must return 0")
	}
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must be empty")
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"spans": []`) {
		t.Fatalf("nil dump not empty:\n%s", b.String())
	}
}

// TestSpanDisabledZeroAlloc is the hard guard on the acceptance
// criterion: span instrumentation must add zero allocations on the hot
// path when telemetry is disabled.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(0, KindChunk, "chunk")
		tr.Virtual(id, 0, 10)
		tr.Emit(id, KindTransfer, "xfer", 0, 5)
		tr.End(id)
	})
	if allocs != 0 {
		t.Fatalf("disabled span hot path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled is the benchmark form of the same guard
// (b.ReportAllocs shows 0 allocs/op).
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(0, KindChunk, "chunk")
		tr.Emit(id, KindTransfer, "xfer", 0, 5)
		tr.End(id)
	}
}

// BenchmarkSpanEnabled documents the enabled-path cost for the bench
// regression reporter.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(0, KindChunk, "chunk")
		tr.End(id)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	tr := New()
	run := tr.Begin(0, KindRun, "r")
	tr.Emit(run, KindChunk, "c", 5, 9)
	tr.End(run)

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	d, err := ParseDump(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != DumpVersion || len(d.Spans) != 2 {
		t.Fatalf("parsed dump wrong: %+v", d)
	}
	if d.Spans[1].Kind != KindChunk {
		t.Fatalf("kind did not round-trip: %v", d.Spans[1].Kind)
	}
	if _, err := ParseDump([]byte(`{"version":99,"spans":[]}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := ParseDump([]byte(`{"version":1,"spans":[{"id":1,"kind":"chnuk","name":"c"}]}`)); err == nil {
		t.Fatal("unknown span kind accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindSweep; k <= KindFault; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		data, err := k.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalJSON(data); err != nil || back != k {
			t.Fatalf("kind %v does not round-trip: got %v, %v", k, back, err)
		}
	}
	if (KindFault + 1).String() != "unknown" {
		t.Fatalf("kind past KindFault is named %q; extend this test", (KindFault + 1).String())
	}
	for _, bad := range []string{`"chnuk"`, `"unknown"`, `""`, `3`, `null`} {
		var k Kind
		if err := k.UnmarshalJSON([]byte(bad)); err == nil {
			t.Fatalf("kind %s decoded as %v, want an error", bad, k)
		}
	}
}
