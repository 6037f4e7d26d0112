package rt

import (
	"strings"
	"testing"

	"heteropart/internal/mem"
	"heteropart/internal/metrics"
	"heteropart/internal/sched"
	"heteropart/internal/task"
)

// dynamicMetricsPlan builds a small unpinned plan that exercises every
// instrumentation site: dynamic decisions, transfers both ways, a
// mid-plan barrier and the final taskwait.
func dynamicMetricsPlan(buf *mem.Buffer, k *task.Kernel) *task.Plan {
	var p task.Plan
	for c := int64(0); c < 8; c++ {
		p.Submit(k, c*125, (c+1)*125, task.Unpinned, int(c))
	}
	p.Barrier()
	for c := int64(0); c < 8; c++ {
		p.Submit(k, c*125, (c+1)*125, task.Unpinned, int(c))
	}
	p.Barrier()
	return &p
}

func TestMetricsPopulatedByDynamicRun(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k := flopsKernel("k", buf, 1e6)
	reg := metrics.NewRegistry()
	res := mustExecute(t, Config{
		Platform:  plat,
		Scheduler: sched.NewPerf(),
		Metrics:   reg,
	}, dynamicMetricsPlan(buf, k), dir)

	snap := reg.Snapshot(res.Makespan)
	get := func(name string) float64 {
		t.Helper()
		pt, ok := snap.Get(name)
		if !ok {
			t.Fatalf("series %q missing; have:\n%s", name, reg.Text(res.Makespan))
		}
		return pt.Value
	}

	// Every instance executed lands on some device.
	total := get(metrics.Label("rt_tasks_total", "dev", "0")) +
		get(metrics.Label("rt_tasks_total", "dev", "1"))
	if int(total) != res.Instances {
		t.Errorf("rt_tasks_total sums to %v, want %d instances", total, res.Instances)
	}
	if got := get("rt_instances_total"); int(got) != res.Instances {
		t.Errorf("rt_instances_total = %v, want %d", got, res.Instances)
	}
	elems := get(metrics.Label("rt_elems_total", "dev", "0")) +
		get(metrics.Label("rt_elems_total", "dev", "1"))
	if elems != 2000 { // two sweeps over 1000 elements
		t.Errorf("rt_elems_total sums to %v, want 2000", elems)
	}

	// The GPU ran something, so data crossed the link both ways.
	if get(metrics.Label("rt_tasks_total", "dev", "1")) > 0 {
		if get(metrics.Label("rt_transfer_bytes_total", "dir", "htod")) == 0 {
			t.Error("GPU executed tasks but no HtoD bytes recorded")
		}
		if get(metrics.Label("rt_transfer_bytes_total", "dir", "dtoh")) == 0 {
			t.Error("GPU executed tasks but no DtoH bytes recorded")
		}
	}

	if got := get("rt_decisions_total"); int(got) != res.Decisions {
		t.Errorf("rt_decisions_total = %v, want %d", got, res.Decisions)
	}
	if get("rt_decision_overhead_ns_total") == 0 {
		t.Error("rt_decision_overhead_ns_total = 0, want cumulative overhead")
	}
	if got := get("rt_taskwaits_total"); got != 2 {
		t.Errorf("rt_taskwaits_total = %v, want 2", got)
	}
	if got := get("rt_makespan_ns"); got != float64(res.Makespan) {
		t.Errorf("rt_makespan_ns = %v, want %v", got, float64(res.Makespan))
	}
	if get("sim_events_total") == 0 {
		t.Error("sim_events_total = 0, want engine event count")
	}

	// The scheduler received the registry through MetricsSetter.
	text := reg.Text(res.Makespan)
	if !strings.Contains(text, "sched_perf_warmup_total") {
		t.Error("DP-Perf telemetry missing from registry text")
	}
}

func TestMetricsNilRegistryUnchangedResult(t *testing.T) {
	run := func(reg *metrics.Registry) *Result {
		plat := testPlatform(4)
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 1000, 8)
		k := flopsKernel("k", buf, 1e6)
		return mustExecute(t, Config{
			Platform:  plat,
			Scheduler: sched.NewPerf(),
			Metrics:   reg,
		}, dynamicMetricsPlan(buf, k), dir)
	}
	off := run(nil)
	on := run(metrics.NewRegistry())
	if off.Makespan != on.Makespan || off.Instances != on.Instances ||
		off.Decisions != on.Decisions {
		t.Errorf("metrics changed the simulation: off=%+v on=%+v", off, on)
	}
}

// BenchmarkRTHotPath measures the full runtime with observability off —
// the configuration whose per-task allocation count must not grow when
// instrumentation is added (all metric hooks are nil no-ops here).
func BenchmarkRTHotPath(b *testing.B) {
	plat := testPlatform(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 128*1000, 8)
		k := flopsKernel("k", buf, 1e4)
		var p task.Plan
		for c := int64(0); c < 128; c++ {
			p.Submit(k, c*1000, (c+1)*1000, task.Unpinned, int(c))
		}
		p.Barrier()
		if _, err := Execute(Config{Platform: plat, Scheduler: sched.NewPerf()}, &p, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTHotPathMetrics is the same run with a live registry, for
// comparing the instrumented against the inert configuration.
func BenchmarkRTHotPathMetrics(b *testing.B) {
	plat := testPlatform(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 128*1000, 8)
		k := flopsKernel("k", buf, 1e4)
		var p task.Plan
		for c := int64(0); c < 128; c++ {
			p.Submit(k, c*1000, (c+1)*1000, task.Unpinned, int(c))
		}
		p.Barrier()
		if _, err := Execute(Config{
			Platform: plat, Scheduler: sched.NewPerf(), Metrics: metrics.NewRegistry(),
		}, &p, dir); err != nil {
			b.Fatal(err)
		}
	}
}
