package rt

import (
	"errors"
	"reflect"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/mem"
	"heteropart/internal/sched"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/trace"
)

// Test platform with round numbers and no launch overheads:
// CPU 100 GFLOPS / 100 GB/s, GPU 1000 GFLOPS / 1000 GB/s,
// link 1 GB/s with zero latency. Efficiency 1 everywhere.
func testPlatform(m int) *device.Platform {
	cpu := device.Model{
		Name: "testcpu", Kind: device.CPU, Cores: m, HWThreads: m,
		PeakSPGFLOPS: 100, PeakDPGFLOPS: 100, MemBWGBps: 100,
	}
	gpu := device.Model{
		Name: "testgpu", Kind: device.GPU, Cores: 1,
		PeakSPGFLOPS: 1000, PeakDPGFLOPS: 1000, MemBWGBps: 1000,
	}
	link := device.Link{HtoDGBps: 1, DtoHGBps: 1, Duplex: true}
	p, _ := device.NewPlatform(cpu, m, device.Attachment{Model: gpu, Link: link})
	return p
}

var fullEff = map[device.Kind]device.Efficiency{
	device.CPU: {Compute: 1, Memory: 1},
	device.GPU: {Compute: 1, Memory: 1},
}

// flopsKernel: pure compute, reads+writes buf one-to-one.
func flopsKernel(name string, buf *mem.Buffer, flopsPerElem float64) *task.Kernel {
	return &task.Kernel{
		Name: name, Size: buf.Elems, Precision: device.SP, Eff: fullEff,
		Flops: func(lo, hi int64) float64 { return flopsPerElem * float64(hi-lo) },
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{{Buf: buf, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.ReadWrite}}
		},
	}
}

func mustExecute(t *testing.T, cfg Config, p *task.Plan, dir *mem.Directory) *Result {
	t.Helper()
	res, err := Execute(cfg, p, dir)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleGPUInstanceTimesAddUp(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8) // 8000 B
	k := flopsKernel("k", buf, 1e6)   // 1e9 flops total

	var p task.Plan
	p.Submit(k, 0, 1000, 1, -1) // pinned to GPU
	p.Barrier()

	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	// HtoD: 8000B / 1GB/s = 8us. Exec: 1e9/1000e9 = 1ms. Flush DtoH: 8us.
	want := sim.DurationOf(8e-6) + sim.DurationOf(1e-3) + sim.DurationOf(8e-6)
	if res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.TransferCount != 2 || res.HtoDBytes != 8000 || res.DtoHBytes != 8000 {
		t.Fatalf("transfers = %d (%d/%d B)", res.TransferCount, res.HtoDBytes, res.DtoHBytes)
	}
	if !dir.HostWhole() {
		t.Fatal("host not whole after final barrier")
	}
	if res.GPURatio() != 1.0 {
		t.Fatalf("GPU ratio = %v, want 1", res.GPURatio())
	}
	if res.Decisions != 0 {
		t.Fatalf("static run took %d decisions", res.Decisions)
	}
}

func TestCPUSlotsRunConcurrently(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 4000, 8)
	k := flopsKernel("k", buf, 1e6)

	var p task.Plan
	for i := int64(0); i < 4; i++ {
		p.Submit(k, i*1000, (i+1)*1000, 0, -1)
	}
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	// Each chunk: 1e9 flops on a thread with 100/4 = 25 GFLOPS = 40ms.
	// Four threads in parallel: makespan 40ms, no transfers.
	want := sim.DurationOf(0.040)
	if res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.TransferCount != 0 {
		t.Fatalf("CPU-only run made %d transfers", res.TransferCount)
	}
	if res.GPURatio() != 0 {
		t.Fatalf("GPU ratio = %v, want 0", res.GPURatio())
	}
}

func TestCPUSlotsQueueWhenOversubscribed(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 4000, 8)
	k := flopsKernel("k", buf, 1e6)
	var p task.Plan
	for i := int64(0); i < 4; i++ {
		p.Submit(k, i*1000, (i+1)*1000, 0, -1)
	}
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	// Chunk on one of 2 threads: 1e9/(100e9/2) = 20ms; two waves = 40ms.
	if want := sim.DurationOf(0.040); res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
}

func TestTransferCaching(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	// Read-only kernel: data stays valid on the GPU between instances.
	k := &task.Kernel{
		Name: "read", Size: 1000, Precision: device.SP, Eff: fullEff,
		Flops: func(lo, hi int64) float64 { return float64(hi - lo) },
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{{Buf: buf, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Read}}
		},
	}
	var p task.Plan
	p.Submit(k, 0, 1000, 1, -1)
	p.Submit(k, 0, 1000, 1, -1) // same data, same device: no second transfer
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	if res.TransferCount != 1 {
		t.Fatalf("transfers = %d, want 1 (second read hits device copy)", res.TransferCount)
	}
}

func TestWriteInvalidationForcesReadBack(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k := flopsKernel("k", buf, 1e3)
	var p task.Plan
	p.Submit(k, 0, 1000, 1, -1) // GPU writes all
	p.Submit(k, 0, 1000, 0, -1) // CPU reads: needs DtoH
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	if res.HtoDBytes != 8000 || res.DtoHBytes != 8000 {
		t.Fatalf("traffic = %d/%d B, want 8000/8000", res.HtoDBytes, res.DtoHBytes)
	}
}

func TestComputeModeRespectsDependencies(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 8, 8)
	data := make([]float64, 8)

	addOne := &task.Kernel{
		Name: "addone", Size: 8, Precision: device.DP, Eff: fullEff,
		Flops: func(lo, hi int64) float64 { return float64(hi - lo) },
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{{Buf: buf, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.ReadWrite}}
		},
		Compute: func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				data[i]++
			}
		},
	}
	var p task.Plan
	for rep := 0; rep < 3; rep++ {
		p.Submit(addOne, 0, 8, task.Unpinned, 0)
	}
	p.Barrier()
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewDep(), Compute: true}, &p, dir)
	for i, v := range data {
		if v != 3 {
			t.Fatalf("data[%d] = %v, want 3 (chained increments)", i, v)
		}
	}
	if res.Decisions != 3 {
		t.Fatalf("decisions = %d, want 3 (one per dynamic instance)", res.Decisions)
	}
}

func TestDepSchedulerUsesAllDevices(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 12000, 8)
	k := flopsKernel("k", buf, 1e6)
	var p task.Plan
	for i := int64(0); i < 12; i++ {
		p.Submit(k, i*1000, (i+1)*1000, task.Unpinned, int(i))
	}
	p.Barrier()
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewDep()}, &p, dir)
	if res.InstancesByDevice[0] == 0 || res.InstancesByDevice[1] == 0 {
		t.Fatalf("DP-Dep instance spread = %v, want both devices used", res.InstancesByDevice)
	}
	if res.InstancesByDevice[0]+res.InstancesByDevice[1] != 12 {
		t.Fatalf("instances lost: %v", res.InstancesByDevice)
	}
}

func TestPerfSchedulerFavorsGPUOnComputeKernel(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 32000, 8)
	k := flopsKernel("k", buf, 1e6)
	var p task.Plan
	n := int64(32)
	for i := int64(0); i < n; i++ {
		p.Submit(k, i*1000, (i+1)*1000, task.Unpinned, int(i))
	}
	p.Barrier()
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewPerf()}, &p, dir)
	// GPU is 20x a CPU thread (1000 vs 100/2); after warm-up the GPU
	// should take the bulk of the instances.
	if res.InstancesByDevice[1] <= res.InstancesByDevice[0] {
		t.Fatalf("DP-Perf spread = %v, want GPU-heavy", res.InstancesByDevice)
	}
}

func TestTraceRecords(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k := flopsKernel("k", buf, 1e6)
	var p task.Plan
	p.Submit(k, 0, 1000, 1, -1)
	p.Barrier()
	tr := &trace.Trace{}
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic(), Trace: tr}, &p, dir)
	if len(tr.TasksOn(1)) != 1 {
		t.Fatalf("GPU task records = %d, want 1", len(tr.TasksOn(1)))
	}
	if res.HtoDBytes != 8000 || res.DtoHBytes != 8000 || res.TransferCount != 2 {
		t.Fatalf("transfers = %d/%d/%d", res.HtoDBytes, res.DtoHBytes, res.TransferCount)
	}
	us := tr.Utilization(res.Makespan)
	if len(us) != 1 || us[0].Device != 1 || us[0].Elems != 1000 || us[0].Transfers != 2 {
		t.Fatalf("trace utilization = %+v", us)
	}
	if h, d := tr.LinkOccupancy(); h <= 0 || d <= 0 {
		t.Fatalf("link occupancy = %v/%v, want both directions busy", h, d)
	}
	if tr.Gantt() == "" {
		t.Fatal("empty gantt")
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 2000, 8)
	k := flopsKernel("k", buf, 1e6)
	var p task.Plan
	p.Submit(k, 0, 1000, 0, -1)
	p.Barrier()
	p.Submit(k, 1000, 2000, 0, -1)
	p.Barrier()
	tr := &trace.Trace{}
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic(), Trace: tr}, &p, dir)
	// Each phase runs alone, so processor sharing gives it the whole
	// 100 GFLOPS socket: 10ms per phase, serialized by the barrier.
	if want := sim.DurationOf(0.020); res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	tasks := tr.TasksOn(0)
	if len(tasks) != 2 || tasks[1].Start < tasks[0].End {
		t.Fatalf("barrier did not serialize: %+v", tasks)
	}
}

func TestProcessorSharingScalesWithLoad(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 4000, 8)
	k := flopsKernel("k", buf, 1e6)
	// One chunk alone: full socket speed.
	var p1 task.Plan
	p1.Submit(k, 0, 1000, 0, -1)
	solo := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p1, dir)
	if want := sim.DurationOf(0.010); solo.Makespan != want {
		t.Fatalf("solo chunk = %v, want %v (full socket)", solo.Makespan, want)
	}
	// Four concurrent chunks: each at 1/4 speed, all done at 40ms —
	// same aggregate as the full socket processing 4x the work.
	dir2 := mem.NewDirectory(2)
	buf2 := dir2.Register("a", 4000, 8)
	k2 := flopsKernel("k", buf2, 1e6)
	var p4 task.Plan
	for i := int64(0); i < 4; i++ {
		p4.Submit(k2, i*1000, (i+1)*1000, 0, -1)
	}
	full := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p4, dir2)
	if want := sim.DurationOf(0.040); full.Makespan != want {
		t.Fatalf("4-way load = %v, want %v", full.Makespan, want)
	}
}

func TestEmptyPlan(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	var p task.Plan
	p.Barrier()
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	if res.Makespan != 0 || res.Instances != 0 {
		t.Fatalf("empty plan result = %+v", res)
	}
}

func TestZeroElemInstance(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k := flopsKernel("k", buf, 1e6)
	var p task.Plan
	p.Submit(k, 500, 500, 0, -1)
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	if res.Makespan != 0 { // zero work, zero launch overhead on test CPU
		t.Fatalf("makespan = %v, want 0", res.Makespan)
	}
}

func TestErrorNilScheduler(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	var p task.Plan
	if _, err := Execute(Config{Platform: plat}, &p, dir); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := Execute(Config{Scheduler: sched.NewStatic()}, &p, dir); err == nil {
		t.Fatal("nil platform accepted")
	}
}

func TestErrorSpaceMismatch(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(1) // missing GPU space
	var p task.Plan
	if _, err := Execute(Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir); err == nil {
		t.Fatal("space mismatch accepted")
	}
}

func TestErrorBadPin(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 10, 8)
	k := flopsKernel("k", buf, 1)
	var p task.Plan
	p.Submit(k, 0, 10, 7, -1)
	if _, err := Execute(Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir); err == nil {
		t.Fatal("bad pin accepted")
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Duration {
		plat := testPlatform(3)
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 16000, 8)
		k := flopsKernel("k", buf, 1e5)
		var p task.Plan
		for i := int64(0); i < 16; i++ {
			p.Submit(k, i*1000, (i+1)*1000, task.Unpinned, int(i))
		}
		p.Barrier()
		res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewPerf()}, &p, dir)
		return res.Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic makespans: %v vs %v", a, b)
	}
}

func TestKernelRatioAccounting(t *testing.T) {
	plat := testPlatform(1)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k1 := flopsKernel("k1", buf, 1e3)
	k2 := flopsKernel("k2", buf, 1e3)
	var p task.Plan
	p.Submit(k1, 0, 600, 1, -1)
	p.Submit(k1, 600, 1000, 0, -1)
	p.Barrier()
	p.Submit(k2, 0, 1000, 0, -1)
	p.Barrier()
	res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewStatic()}, &p, dir)
	if got := res.KernelGPURatio("k1"); got != 0.6 {
		t.Fatalf("k1 GPU ratio = %v, want 0.6", got)
	}
	if got := res.KernelGPURatio("k2"); got != 0 {
		t.Fatalf("k2 GPU ratio = %v, want 0", got)
	}
	if got := res.KernelGPURatio("nosuch"); got != 0 {
		t.Fatalf("unknown kernel ratio = %v, want 0", got)
	}
}

func TestDecisionOverheadSlowsDynamic(t *testing.T) {
	makespan := func(s sched.Scheduler, pin int) sim.Duration {
		plat := testPlatform(1)
		dir := mem.NewDirectory(2)
		buf := dir.Register("a", 1000, 8)
		k := flopsKernel("k", buf, 1e3)
		var p task.Plan
		for i := int64(0); i < 10; i++ {
			p.Submit(k, i*100, (i+1)*100, pin, -1)
		}
		p.Barrier()
		res := mustExecute(t, Config{Platform: plat, Scheduler: s}, &p, dir)
		return res.Makespan
	}
	static := makespan(sched.NewStatic(), 0)
	dynamic := makespan(sched.NewDep(), task.Unpinned)
	if dynamic <= static {
		t.Fatalf("dynamic (%v) not slower than static (%v) on a 1-thread CPU", dynamic, static)
	}
}

// TestPastEndFailsTyped: an accelerator chunk or a transfer that would
// complete at or past the last representable virtual time fails the
// run with ErrOptionsInvalid, as host work does. Their durations used
// to wrap negative when the launch overhead, the link latency or a
// slowdown factor was applied to a saturated time, and the run then
// ended early with a short makespan or an untyped scheduling error.
func TestPastEndFailsTyped(t *testing.T) {
	base := testPlatform(2)
	slowGPU := base.Accels[0].Model
	slowGPU.LaunchOverhead = sim.Microsecond
	slow, err := device.NewPlatform(base.Host.Model, 2, device.Attachment{Model: slowGPU,
		Link: device.Link{HtoDGBps: 1e-3, DtoHGBps: 1e-3, Latency: sim.Microsecond, Duplex: true}})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := &fault.Schedule{Version: fault.ScheduleVersion,
		Faults: []fault.Fault{{Kind: fault.KindSlowdown, Device: 1, Factor: 1e3}}}
	for _, c := range []struct {
		name         string
		plat         *device.Platform
		elems        int64
		flopsPerElem float64
		faults       *fault.Schedule
	}{
		{"transfer", slow, 1 << 59, 0, nil},
		{"accelerator chunk", slow, 1, 1e30, nil},
		{"slowed chunk", base, 1 << 20, 1e13, slowdown},
	} {
		dir := mem.NewDirectory(2)
		k := flopsKernel("k", dir.Register("a", c.elems, 8), c.flopsPerElem)
		var p task.Plan
		p.Submit(k, 0, c.elems, 1, -1)
		p.Barrier()
		_, err := Execute(Config{Platform: c.plat, Scheduler: sched.NewStatic(),
			Faults: fault.NewInjector(c.faults, fault.ScopeExecute)}, &p, dir)
		if !errors.Is(err, apierr.ErrOptionsInvalid) {
			t.Errorf("%s: %v, want ErrOptionsInvalid", c.name, err)
		}
	}
}

// TestReexecutedPlanRepeatsItsRun: a plan executed twice, with the
// directory reset in between, gives the same Result and trace records,
// and the second Execute leaves the dependence graph as the first one
// built it. The runtime keeps its run state by instance ID and builds
// the graph only when the plan has changed.
func TestReexecutedPlanRepeatsItsRun(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	a := dir.Register("a", 8*1000, 8)
	b := dir.Register("b", 8*1000, 8)
	stage := func(name string, in, out *mem.Buffer) *task.Kernel {
		return &task.Kernel{
			Name: name, Size: in.Elems, Precision: device.SP, Eff: fullEff,
			Flops: func(lo, hi int64) float64 { return 1e4 * float64(hi-lo) },
			Accesses: func(lo, hi int64) []task.Access {
				iv := mem.Interval{Lo: lo, Hi: hi}
				return []task.Access{{Buf: in, Interval: iv, Mode: task.Read}, {Buf: out, Interval: iv, Mode: task.Write}}
			},
		}
	}
	var p task.Plan
	for _, k := range []*task.Kernel{stage("ab", a, b), stage("ba", b, a), stage("ab", a, b)} {
		for c := int64(0); c < 8; c++ {
			p.Submit(k, c*1000, (c+1)*1000, task.Unpinned, int(c))
		}
	}
	p.Barrier()

	run := func() (*Result, []trace.Record) {
		tr := &trace.Trace{}
		res := mustExecute(t, Config{Platform: plat, Scheduler: sched.NewPerf(), Trace: tr}, &p, dir)
		return res, tr.Records
	}
	res1, recs1 := run()
	if p.Stale() {
		t.Fatal("Execute left the plan's dependence graph stale")
	}
	if res1.Decisions == 0 || res1.TransferCount == 0 {
		t.Fatalf("the plan exercised no decisions or transfers: %+v", res1)
	}
	insts := p.Instances()
	deps := make([][]*task.Instance, len(insts))
	succs := make([][]*task.Instance, len(insts))
	edges := 0
	for i, in := range insts {
		deps[i], succs[i] = in.Deps, in.Succs
		edges += len(in.Deps)
	}
	if edges == 0 {
		t.Fatal("the plan has no dependences")
	}

	dir.Reset()
	res2, recs2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("second run's result differs:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Errorf("second run's trace differs: %d vs %d records", len(recs1), len(recs2))
	}
	// The same lists, not equal copies: the graph was not rebuilt.
	same := func(x, y []*task.Instance) bool { return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0]) }
	for i, in := range insts {
		if !same(in.Deps, deps[i]) || !same(in.Succs, succs[i]) {
			t.Fatalf("%v: the second Execute rebuilt its dependence lists", in)
		}
	}
}
