package strategy

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/rt"
	"heteropart/internal/sched"
	"heteropart/internal/task"
)

// smallProblem builds a compute-mode test problem for an app.
func smallProblem(t *testing.T, name string, sync apps.SyncMode) *apps.Problem {
	t.Helper()
	sizes := map[string]struct {
		n     int64
		iters int
	}{
		"MatrixMul":    {48, 1},
		"BlackScholes": {5000, 1},
		"Nbody":        {256, 2},
		"HotSpot":      {32, 2},
		"STREAM-Seq":   {4096, 1},
		"STREAM-Loop":  {2048, 2},
		"Cholesky":     {64, 1},
		"Convolution":  {32, 1},
		"Triangular":   {512, 1},
	}
	cfg := sizes[name]
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(apps.Variant{N: cfg.n, Iters: cfg.iters, Sync: sync, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEveryApplicableStrategyComputesCorrectly(t *testing.T) {
	plat := device.PaperPlatform(4)
	appNames := []string{"MatrixMul", "BlackScholes", "Nbody", "HotSpot",
		"STREAM-Seq", "STREAM-Loop", "Cholesky", "Convolution", "Triangular"}
	for _, appName := range appNames {
		for _, syncMode := range []apps.SyncMode{apps.SyncNone, apps.SyncForced} {
			probe := smallProblem(t, appName, syncMode)
			cls := probe.Class()
			needsSync := probe.NeedsSync()
			for _, s := range All() {
				if !s.Applicable(cls, needsSync) {
					continue
				}
				if probe.AtomicPhases && s.Name() == "DP-Converted" {
					continue
				}
				p := smallProblem(t, appName, syncMode)
				out, err := s.Run(p, plat, Options{Compute: true})
				if err != nil {
					t.Fatalf("%s / %s (sync=%v): %v", appName, s.Name(), syncMode, err)
				}
				if err := p.Verify(); err != nil {
					t.Fatalf("%s / %s (sync=%v): wrong result: %v", appName, s.Name(), syncMode, err)
				}
				if out.Result.Makespan <= 0 {
					t.Fatalf("%s / %s: zero makespan", appName, s.Name())
				}
				if !p.Dir.HostWhole() {
					t.Fatalf("%s / %s: host not whole after final taskwait", appName, s.Name())
				}
			}
		}
	}
}

func TestOnlyDeviceRatios(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "BlackScholes", apps.SyncDefault)
	out, err := OnlyGPU{}.Run(p, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.GPURatio() != 1 {
		t.Fatalf("Only-GPU ratio = %v", out.GPURatio())
	}
	p2 := smallProblem(t, "BlackScholes", apps.SyncDefault)
	out2, err := OnlyCPU{}.Run(p2, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if out2.GPURatio() != 0 {
		t.Fatalf("Only-CPU ratio = %v", out2.GPURatio())
	}
	// Only-CPU uses all m workers: m instances on device 0.
	if out2.Result.InstancesByDevice[0] != 4 {
		t.Fatalf("Only-CPU instances = %v, want 4 host chunks", out2.Result.InstancesByDevice)
	}
}

func TestSPSingleRejectsMultiKernel(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "STREAM-Seq", apps.SyncNone)
	if _, err := (SPSingle{}).Run(p, plat, Options{Compute: true}); err == nil {
		t.Fatal("SP-Single accepted a multi-kernel app")
	}
}

// TestAcceleratorStrategiesRefuseHostOnly: on a platform with no
// accelerator, every strategy that places work on one refuses with
// ErrPlatformInvalid instead of failing untyped inside Glinda's probe.
func TestAcceleratorStrategiesRefuseHostOnly(t *testing.T) {
	plat, err := device.NewPlatform(device.XeonE5_2620(), 4)
	if err != nil {
		t.Fatal(err)
	}
	p := smallProblem(t, "BlackScholes", apps.SyncDefault)
	for _, s := range []Strategy{SPSingle{}, SPUnified{}, SPVaried{}, OnlyGPU{}, DPConverted{}} {
		if _, err := s.Plan(p, plat, Options{}); !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("%s on a host-only platform: %v, want ErrPlatformInvalid", s.Name(), err)
		}
	}
}

func TestSPUnifiedSingleTransferPair(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "STREAM-Seq", apps.SyncNone)
	out, err := SPUnified{}.Run(p, plat, Options{Compute: true, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// The GPU partition must move: array a in (cold read) and the
	// written unions of a, b, c out at the final flush. That is 4
	// transfers total — no inter-kernel traffic.
	if out.Result.TransferCount > 4 {
		t.Fatalf("SP-Unified made %d transfers, want <= 4", out.Result.TransferCount)
	}
	dec := out.Decisions[""]
	if dec.Config != 0 && dec.NG == 0 {
		t.Fatalf("unified decision = %+v", dec)
	}
}

func TestSPVariedTransfersPerKernel(t *testing.T) {
	plat := device.PaperPlatform(4)
	pU := smallProblem(t, "STREAM-Seq", apps.SyncNone)
	uni, err := SPUnified{}.Run(pU, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pV := smallProblem(t, "STREAM-Seq", apps.SyncNone)
	varied, err := SPVaried{}.Run(pV, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(varied.Decisions) != 4 {
		t.Fatalf("SP-Varied decisions = %d, want 4 kernels", len(varied.Decisions))
	}
	if varied.Result.TransferCount <= uni.Result.TransferCount {
		t.Fatalf("SP-Varied transfers (%d) not above SP-Unified (%d)",
			varied.Result.TransferCount, uni.Result.TransferCount)
	}
}

func TestDPPerfSeedingRemovesProfilingPenalty(t *testing.T) {
	plat := device.PaperPlatform(4)
	// Use a GPU-friendly compute kernel where CPU warm-up instances
	// are expensive: the seeded run must be faster or equal.
	p1 := smallProblem(t, "MatrixMul", apps.SyncDefault)
	seeded, err := DPPerf{}.Run(p1, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	p2 := smallProblem(t, "MatrixMul", apps.SyncDefault)
	raw, err := DPPerf{}.Run(p2, plat, Options{Compute: true, NoSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Result.Makespan > raw.Result.Makespan {
		t.Fatalf("seeded run (%v) slower than unseeded (%v)",
			seeded.Result.Makespan, raw.Result.Makespan)
	}
}

func TestDynamicStrategiesCountDecisions(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "STREAM-Seq", apps.SyncNone)
	out, err := DPDep{}.Run(p, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Decisions != 16 { // 4 kernels x 4 chunks
		t.Fatalf("decisions = %d, want 16", out.Result.Decisions)
	}
}

func TestConvertRatio(t *testing.T) {
	cases := []struct {
		beta         float64
		m            int
		wantC, wantG int
	}{
		{0, 12, 12, 0},
		{1, 12, 0, 12},
		{0.5, 12, 6, 6},
		{0.44, 12, 7, 5},
		{0.9, 10, 1, 9},
		{-1, 10, 10, 0},
		{2, 10, 0, 10},
		{0.5, 0, 0, 0},
	}
	for _, c := range cases {
		gotC, gotG := ConvertRatio(c.beta, c.m)
		if gotC != c.wantC || gotG != c.wantG {
			t.Errorf("ConvertRatio(%v,%d) = %d,%d want %d,%d", c.beta, c.m, gotC, gotG, c.wantC, c.wantG)
		}
	}
}

func TestDPConvertedCorrectAndCloseToStatic(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "BlackScholes", apps.SyncDefault)
	out, err := DPConverted{}.Run(p, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if out.Decisions[""].Beta <= 0 {
		t.Fatal("conversion lost the glinda decision")
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"SP-Single", "SP-Unified", "SP-Varied", "DP-Dep", "DP-Perf", "Only-CPU", "Only-GPU"} {
		s, err := ByName(want)
		if err != nil || s.Name() != want {
			t.Fatalf("ByName(%q) = %v, %v", want, s, err)
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestChunksOptionControlsGranularity(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "BlackScholes", apps.SyncDefault)
	out, err := DPDep{}.Run(p, plat, Options{Compute: true, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Result.Instances; got != 8 {
		t.Fatalf("instances = %d, want 8", got)
	}
}

// TestPlanAssemblyAllocationCeiling pins the allocations of deciding
// a profile-free plan on a multi-phase problem (STREAM-Seq: 4 phases
// of m = 12 task instances): the splitter cuts into one reused buffer
// and every phase's chunk list is allocated once, at its final size.
// The ceilings may be lowered, never raised.
func TestPlanAssemblyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates per call")
	}
	plat := device.PaperPlatform(12)
	p, err := apps.NewStreamSeq().Build(apps.Variant{N: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s       Strategy
		ceiling float64
	}{
		{DPPerf{}, 25},
		{OnlyCPU{}, 25},
	} {
		var err error
		got := testing.AllocsPerRun(20, func() {
			if err == nil {
				_, err = c.s.Plan(p, plat, Options{})
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.s.Name(), err)
		}
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocations per Plan, ceiling %.0f", c.s.Name(), got, c.ceiling)
		}
	}
}

// TestStaticDecisionAllocationCeiling pins the allocations of one
// SP-Single decision of BlackScholes on the two-accelerator
// tri-asym-p2p platform: one host probe and one probe per accelerator,
// then the water-filling split and plan assembly. With Go 1.24 on amd64
// a Plan takes 216 allocations (415 when every accelerator's profile
// ran its own host probe); the ceiling leaves about 10% headroom and
// may be lowered, never raised.
func TestStaticDecisionAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates per call")
	}
	plat, err := device.ByName("tri-asym-p2p", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := apps.NewBlackScholes().Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if err == nil {
			_, err = SPSingle{}.Plan(p, plat, Options{})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 238
	if got > ceiling {
		t.Errorf("%.0f allocations per SP-Single Plan, ceiling %d", got, ceiling)
	}
}

// BenchmarkStaticPlan measures one static decision on each catalog
// platform: SP-Single on BlackScholes and SP-Unified on STREAM-Seq at
// the paper's sizes, Glinda's probes included.
func BenchmarkStaticPlan(b *testing.B) {
	for _, name := range device.SpecNames() {
		plat, err := device.ByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			app apps.App
			s   Strategy
		}{
			{apps.NewBlackScholes(), SPSingle{}},
			{apps.NewStreamSeq(), SPUnified{}},
		} {
			p, err := c.app.Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+c.s.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.s.Plan(p, plat, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestProbeExecuteAllocationCeiling pins the set-up budget of a small
// rt.Execute: one Glinda accelerator probe of BlackScholes on
// tri-asym-p2p, a fresh one-instance plan pinned to accelerator 1 and
// executed on cold data. With Go 1.24 on amd64 building the plan and
// executing it take 60 allocations (84 when the per-device state was
// six slices, the tallies four maps written per chunk, and every link
// resource carried a formatted name); the ceiling leaves about 10%
// headroom and may be lowered, never raised.
func TestProbeExecuteAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates per call")
	}
	plat, err := device.ByName("tri-asym-p2p", 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := apps.NewBlackScholes().Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Unique[0]
	s := k.Size / 50 // Glinda's probe sample: 2% of the iteration space
	got := testing.AllocsPerRun(20, func() {
		if err != nil {
			return
		}
		tp := task.NewPlan(1, 0)
		tp.Submit(k, 0, s, 1, -1)
		_, err = rt.Execute(rt.Config{Platform: plat, Scheduler: sched.NewStatic()}, tp, p.Dir)
		p.Dir.Reset()
	})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 66
	if got > ceiling {
		t.Errorf("%.0f allocations per probe Execute, ceiling %d", got, ceiling)
	}
}

// TestPlanInstanceCap: a plan of more than 1<<20 task instances is
// refused with ErrOptionsInvalid before its chunk lists are built:
// iters and chunks are each capped, but not their product. STREAM-Loop
// runs four kernels per iteration, so at chunks 1024 iters 256 gives
// exactly 1<<20 instances and still plans; iters 257 gives 1,052,672.
func TestPlanInstanceCap(t *testing.T) {
	plat := device.PaperPlatform(12)
	app, err := apps.ByName("STREAM-Loop")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		iters   int
		refused bool
	}{{256, false}, {257, true}} {
		p, err := app.Build(apps.Variant{N: 1 << 20, Iters: c.iters})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl, err := DPPerf{}.Plan(p, plat, Options{Chunks: 1024})
		runtime.ReadMemStats(&after)
		if c.refused {
			if !errors.Is(err, apierr.ErrOptionsInvalid) {
				t.Errorf("iters %d: %v, want ErrOptionsInvalid", c.iters, err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
				t.Errorf("iters %d: the refusal allocated %d bytes", c.iters, b)
			}
			continue
		}
		if err != nil {
			t.Fatalf("iters %d: %v", c.iters, err)
		}
		n := 0
		for _, ph := range pl.Phases {
			n += len(ph.Chunks)
		}
		if n != 1<<20 {
			t.Errorf("iters %d: %d instances, want %d", c.iters, n, 1<<20)
		}
	}
}

// TestSeededPerfMaterializesOnce: a seeded DP-Perf execution runs its
// training and measured passes on one materialized task plan, so each
// kernel's access list is built once per task instance, not once per
// pass.
func TestSeededPerfMaterializesOnce(t *testing.T) {
	plat := device.PaperPlatform(4)
	p := smallProblem(t, "STREAM-Loop", apps.SyncDefault)
	pl, err := DPPerf{}.Plan(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Scheduler.Seeded {
		t.Fatal("DP-Perf plan is not seeded")
	}
	calls := 0
	for _, k := range p.Unique {
		accesses := k.Accesses
		k.Accesses = func(lo, hi int64) []task.Access {
			calls++
			return accesses(lo, hi)
		}
	}
	if _, err := Execute(pl, p, plat, Options{}); err != nil {
		t.Fatal(err)
	}
	if want := pl.Instances(); calls != want {
		t.Fatalf("%d access-list builds for %d task instances, want one each", calls, want)
	}
}

// TestSeededExecuteAllocationCeiling pins the allocations of one
// ExecuteContext of a decided, seeded DP-Perf plan (STREAM-Loop on the
// paper platform at m = 12): the plan is materialized once into one
// instance slab, its training and measured runs share it, and its
// dependence graph is built once. The final taskwait leaves the
// directory pristine, so the problem is reused across calls. With Go
// 1.24 on amd64 a call over the plan's 480 instances takes 854
// allocations, each instance's access list one of them; the ceiling
// leaves about 10% headroom and may be lowered, never raised.
func TestSeededExecuteAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates per call")
	}
	plat := device.PaperPlatform(12)
	p, err := apps.NewStreamLoop().Build(apps.Variant{N: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := DPPerf{}.Plan(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if err == nil {
			_, err = ExecuteContext(context.Background(), pl, p, plat, Options{})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 940
	if got > ceiling {
		t.Errorf("%.0f allocations per ExecuteContext, ceiling %d", got, ceiling)
	}
}
