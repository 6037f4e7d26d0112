package rt

import (
	"testing"

	"heteropart/internal/mem"
	"heteropart/internal/sched"
	"heteropart/internal/task"
)

// BenchmarkRuntimeStaticThroughput measures simulated task instances
// per second of real time under a fully pinned plan.
func BenchmarkRuntimeStaticThroughput(b *testing.B) {
	plat := testPlatform(12)
	for i := 0; i < b.N; i++ {
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 128*1000, 8)
		k := flopsKernel("k", buf, 1e4)
		var p task.Plan
		for c := int64(0); c < 128; c++ {
			pin := 0
			if c%13 == 0 {
				pin = 1
			}
			p.Submit(k, c*1000, (c+1)*1000, pin, -1)
		}
		p.Barrier()
		if _, err := Execute(Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// dynamicPlan is the dynamic-path workload: 128 unpinned instances in
// separate chains over one buffer, then a taskwait.
func dynamicPlan() (*task.Plan, *mem.Directory) {
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 128*1000, 8)
	k := flopsKernel("k", buf, 1e4)
	var p task.Plan
	for c := int64(0); c < 128; c++ {
		p.Submit(k, c*1000, (c+1)*1000, task.Unpinned, int(c))
	}
	p.Barrier()
	return &p, dir
}

// BenchmarkRuntimeDynamicThroughput measures the dynamic path:
// dependence analysis, scheduling decisions, transfers.
func BenchmarkRuntimeDynamicThroughput(b *testing.B) {
	plat := testPlatform(12)
	for i := 0; i < b.N; i++ {
		p, dir := dynamicPlan()
		if _, err := Execute(Config{Platform: plat, Scheduler: sched.NewPerf()}, p, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDynamicPathAllocationCeiling pins the allocation count of one
// tracing-off Execute (no trace, metrics or spans) of the dynamic
// benchmark's plan under both dynamic policies. The plan and directory
// are reused across runs, as the final taskwait leaves the directory
// pristine. A reused plan's dependence graph is built once, by the
// first run, so the count is the engine's alone. With Go 1.24 on amd64
// a run takes 172 allocations under DP-Perf and 93 under DP-Dep; the
// ceilings leave about 10% headroom and may be lowered, never raised.
func TestDynamicPathAllocationCeiling(t *testing.T) {
	plat := testPlatform(12)
	for _, c := range []struct {
		name    string
		policy  func() sched.Scheduler
		ceiling float64
	}{
		{"DP-Perf", func() sched.Scheduler { return sched.NewPerf() }, 189},
		{"DP-Dep", func() sched.Scheduler { return sched.NewDep() }, 102},
	} {
		p, dir := dynamicPlan()
		var err error
		got := testing.AllocsPerRun(10, func() {
			if err == nil {
				_, err = Execute(Config{Platform: plat, Scheduler: c.policy()}, p, dir)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocations per Execute, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// BenchmarkProcessorSharing measures the PS executor under churn:
// staggered arrivals with heterogeneous demands force continual
// re-scaling.
func BenchmarkProcessorSharing(b *testing.B) {
	plat := testPlatform(16)
	for i := 0; i < b.N; i++ {
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 256*100, 8)
		var p task.Plan
		for c := int64(0); c < 256; c++ {
			k := flopsKernel("k", buf, float64(1e3*(c%7+1)))
			p.Submit(k, c*100, (c+1)*100, 0, -1)
		}
		p.Barrier()
		if _, err := Execute(Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir); err != nil {
			b.Fatal(err)
		}
	}
}
