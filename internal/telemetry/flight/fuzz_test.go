package flight_test

import (
	"bytes"
	"testing"

	"heteropart/internal/metrics"
	"heteropart/internal/telemetry"
	"heteropart/internal/telemetry/flight"
	"heteropart/internal/trace"
)

// seedBundle encodes a small bundle by hand: a few metric series, a
// two-span tree and a utilization row. It is small on purpose: a
// recorded strategy run makes a seed so large that the fuzzer spends
// its whole budget minimizing it.
func seedBundle(tb testing.TB) []byte {
	tb.Helper()
	reg := metrics.NewRegistry()
	reg.Counter(metrics.Label("rt_tasks_total", "dev", "1"), "tasks").Add(3)
	reg.Gauge("rt_makespan_ns", "makespan").SetInt(40)
	reg.Histogram("rt_taskwait_drain_ns", "drain").Observe(12)
	snap := reg.Snapshot(40)
	tr := telemetry.New()
	run := tr.Begin(0, telemetry.KindRun, "App/DP-Perf")
	id := tr.Emit(run, telemetry.KindChunk, "k#0[0,8)", 0, 30)
	tr.Annotate(id, "dev", "1")
	tr.End(run)
	util := []trace.DeviceUtilization{{Device: 1, Busy: 30, Tasks: 1, Elems: 8, Utilization: 0.75}}
	b, err := flight.Record("App", "DP-Perf", "app=App", "fp", 40, nil, &snap, tr, util)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestParseRejectsUnknownSpanKind: a bundle whose span kind is not one
// this build knows is corrupt, and Parse must say so rather than read
// the span as some other kind.
func TestParseRejectsUnknownSpanKind(t *testing.T) {
	good := seedBundle(t)
	if _, err := flight.Parse(good); err != nil {
		t.Fatalf("seed bundle rejected: %v", err)
	}
	bad := bytes.Replace(good, []byte(`"kind": "chunk"`), []byte(`"kind": "chnuk"`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("seed bundle has no chunk span to corrupt")
	}
	if _, err := flight.Parse(bad); err == nil {
		t.Fatal("bundle with an unknown span kind accepted")
	}
}

// FuzzBundleParse is the decode-boundary fuzz target of hetsim
// -record-diff: Parse on arbitrary bytes must never panic, and every
// accepted bundle must re-encode to a fixed point (Encode∘Parse
// applied twice gives the bytes it gives once).
func FuzzBundleParse(f *testing.F) {
	good := seedBundle(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(`"kind": "chunk"`), []byte(`"kind": "chnuk"`), 1))
	f.Add(bytes.Replace(good, []byte(`"Type": "counter"`), []byte(`"Type": "summary"`), 1))
	f.Add([]byte(``))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"plan":{"x":[1,2]},"faults":"<&>"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := flight.Parse(data)
		if err != nil {
			return
		}
		once, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted bundle does not encode: %v", err)
		}
		back, err := flight.Parse(once)
		if err != nil {
			t.Fatalf("Parse rejected its own encoding: %v\n%s", err, once)
		}
		twice, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\nonce:\n%s\ntwice:\n%s", once, twice)
		}
	})
}
