package metrics

import (
	"strings"
	"testing"

	"heteropart/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_ns")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	// All updates through nil handles must be no-ops, not panics.
	c.Add(5)
	c.Inc()
	g.Set(1.5)
	g.SetInt(7)
	h.Observe(100)
	h.ObserveDuration(3 * sim.Microsecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("nil instruments leaked values")
	}
	snap := r.Snapshot(10)
	if len(snap.Points) != 0 || snap.At != 10 {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
	if !strings.Contains(r.Text(10), "heteropart_virtual_time_ns 10") {
		t.Fatal("nil registry text missing timestamp")
	}
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks_total")
	c.Add(3)
	c.Inc()
	c.Add(-5) // counters never go down
	if c.Value() != 4 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("tasks_total") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("ratio")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.SetInt(12)
	if g.Value() != 12 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_ns")
	for _, v := range []int64{0, 1, 2, 100, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1103 { // -5 clamps to 0
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if m := h.Mean(); m < 183 || m > 184 {
		t.Fatalf("mean = %v", m)
	}
}

// TestHistogramObserveZeroAlloc pins that recording allocates
// nothing, on a registered histogram and on the nil one a disabled
// registry hands out, so request and span timing stay free.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("observe_ns")
	var off *Histogram
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		v += 7919
		h.Observe(v)
		off.Observe(v)
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	if got := bucketOf(1 << 62); got != HistBuckets-1 {
		t.Fatalf("huge value bucket = %d", got)
	}
}

func TestTypeMismatchDetaches(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(2)
	// Same name, different type: the caller gets a detached instrument
	// and the original series is untouched.
	g := r.Gauge("x")
	g.Set(9)
	snap := r.Snapshot(0)
	p, ok := snap.Get("x")
	if !ok || p.Type != CounterType || p.Value != 2 {
		t.Fatalf("series corrupted: %+v", p)
	}
}

func TestLabelHelpers(t *testing.T) {
	if got := Label("t_total", "dev", "1"); got != `t_total{dev="1"}` {
		t.Fatalf("Label = %q", got)
	}
	if got := Labels("t_total", "dev", "1", "dir", "htod"); got != `t_total{dev="1",dir="htod"}` {
		t.Fatalf("Labels = %q", got)
	}
	if got := Labels("t_total"); got != "t_total" {
		t.Fatalf("Labels no kv = %q", got)
	}
}

func TestSnapshotSortedAndStamped(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Add(1)
	r.Counter("a_total").Add(2)
	r.Gauge("m").Set(3)
	snap := r.Snapshot(42 * sim.Microsecond)
	if snap.At != 42*sim.Microsecond {
		t.Fatalf("At = %v", snap.At)
	}
	var names []string
	for _, p := range snap.Points {
		names = append(names, p.Name)
	}
	want := []string{"a_total", "m", "z_total"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("order = %v", names)
		}
	}
	if _, ok := snap.Get("nosuch"); ok {
		t.Fatal("Get found a missing series")
	}
}

func TestTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("rt_tasks_total", "dev", "0"), "tasks executed").Add(7)
	r.Counter(Label("rt_tasks_total", "dev", "1")).Add(3)
	r.Gauge("rt_makespan_ns").SetInt(12345)
	h := r.Histogram("rt_drain_ns")
	h.Observe(10)
	h.Observe(30)
	text := r.Text(99)
	for _, want := range []string{
		"heteropart_virtual_time_ns 99",
		"# HELP rt_tasks_total tasks executed",
		"# TYPE rt_tasks_total counter",
		`rt_tasks_total{dev="0"} 7`,
		`rt_tasks_total{dev="1"} 3`,
		"# TYPE rt_makespan_ns gauge",
		"rt_makespan_ns 12345",
		"# TYPE rt_drain_ns histogram",
		"rt_drain_ns_count 2",
		"rt_drain_ns_sum 40",
		"rt_drain_ns_max 30",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One TYPE line per base name, not per labeled series.
	if strings.Count(text, "# TYPE rt_tasks_total counter") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", text)
	}
}

func TestTextDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		for _, d := range []string{"0", "1", "2"} {
			r.Counter(Label("x_total", "dev", d)).Add(5)
		}
		r.Gauge("ratio").Set(0.3333333333)
		return r.Text(1000)
	}
	if build() != build() {
		t.Fatal("exposition differs between identical registries")
	}
}

func TestFormatValue(t *testing.T) {
	if got := formatValue(3); got != "3" {
		t.Fatalf("int = %q", got)
	}
	if got := formatValue(0.5); got != "0.5" {
		t.Fatalf("float = %q", got)
	}
	if got := formatValue(1e18); !strings.Contains(got, "e+") {
		t.Fatalf("huge = %q", got)
	}
}

// BenchmarkMetricsCounter proves the hot path allocates nothing —
// enabled and disabled alike.
func BenchmarkMetricsCounter(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("bench_total")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var r *Registry
		c := r.Counter("bench_total")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

// BenchmarkMetricsHistogram proves Observe is allocation-free.
func BenchmarkMetricsHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
