package sched

import (
	"testing"

	"heteropart/internal/device"
	"heteropart/internal/sim"
	"heteropart/internal/task"
)

// fakeView is a minimal View for policy tests.
type fakeView struct {
	now    sim.Time
	plat   *device.Platform
	queued map[int]int
}

func (v *fakeView) Now() sim.Time              { return v.now }
func (v *fakeView) Devices() []*device.Device  { return v.plat.Devices() }
func (v *fakeView) QueuedOn(dev int) int       { return v.queued[dev] }
func (v *fakeView) LinkOf(dev int) device.Link { return v.plat.LinkOf(dev) }

func paperView() *fakeView {
	return &fakeView{plat: device.PaperPlatform(12), queued: map[int]int{}}
}

func inst(k *task.Kernel, id int, lo, hi int64, chain int) *task.Instance {
	return &task.Instance{ID: id, Kernel: k, Lo: lo, Hi: hi, Pin: task.Unpinned, Chain: chain}
}

func kernel(name string) *task.Kernel { return &task.Kernel{Name: name, Size: 1 << 30} }

func TestDepPullsOldestFirst(t *testing.T) {
	d := NewDep()
	k := kernel("k")
	ready := []*task.Instance{inst(k, 0, 0, 10, -1), inst(k, 1, 10, 20, -1)}
	got := d.OnIdle(0, ready, paperView())
	if got != ready[0] {
		t.Fatalf("picked %v, want oldest", got)
	}
	if _, push := d.OnReady(ready[0], paperView()); push {
		t.Fatal("DP-Dep must be a pull policy")
	}
	if d.OnIdle(0, nil, paperView()) != nil {
		t.Fatal("empty ready should yield nil")
	}
}

func TestDepChainAffinity(t *testing.T) {
	d := NewDep()
	k1, k2 := kernel("k1"), kernel("k2")
	v := paperView()
	// Chain 7 ran on device 1.
	first := inst(k1, 0, 0, 10, 7)
	d.Placed(first, 1)
	// Device 1 asks: prefers chain-7 successor over an older instance
	// of an unclaimed chain.
	ready := []*task.Instance{inst(k2, 1, 50, 60, 3), inst(k2, 2, 0, 10, 7)}
	if got := d.OnIdle(1, ready, v); got != ready[1] {
		t.Fatalf("device 1 picked %v, want chain-7 instance", got)
	}
	// Device 0 asks: chain 7 belongs to device 1, so it takes the
	// unclaimed chain-3 instance.
	if got := d.OnIdle(0, ready, v); got != ready[0] {
		t.Fatalf("device 0 picked %v, want chain-3 instance", got)
	}
}

func TestDepFallsBackWhenAllChainsClaimed(t *testing.T) {
	d := NewDep()
	k := kernel("k")
	v := paperView()
	d.Placed(inst(k, 0, 0, 10, 1), 1)
	d.Placed(inst(k, 1, 10, 20, 2), 1)
	ready := []*task.Instance{inst(k, 2, 0, 10, 1), inst(k, 3, 10, 20, 2)}
	// Device 0 owns neither chain; both are claimed by device 1 — it
	// still gets work (breadth-first fallback).
	if got := d.OnIdle(0, ready, v); got == nil {
		t.Fatal("device 0 starved despite ready work")
	}
}

func TestDepOverheadNonZero(t *testing.T) {
	if NewDep().Overhead() <= 0 {
		t.Fatal("dynamic policy must model decision overhead")
	}
}

func TestPerfWarmupSpreadsInstances(t *testing.T) {
	p := NewPerf()
	k := kernel("k")
	v := paperView()
	counts := map[int]int{}
	for i := 0; i < 2*WarmupInstances; i++ {
		dev, push := p.OnReady(inst(k, i, int64(i)*10, int64(i+1)*10, -1), v)
		if !push {
			t.Fatal("DP-Perf must push")
		}
		p.Placed(inst(k, i, 0, 10, -1), dev)
		counts[dev]++
	}
	if counts[0] != WarmupInstances || counts[1] != WarmupInstances {
		t.Fatalf("warm-up distribution = %v, want %d each", counts, WarmupInstances)
	}
}

// warmUp places the warm-up instances of k on each device through the
// public surface. With no rate learned yet, every placement is
// estimated at 0, so the busy horizons stay at 0.
func warmUp(p *Perf, k *task.Kernel, devs ...int) {
	for i := 0; i < WarmupInstances; i++ {
		for _, dev := range devs {
			p.Placed(inst(k, i, 0, 100, -1), dev)
		}
	}
}

// horizonOf reads a device's busy horizon and whether it has one.
func (p *Perf) horizonOf(dev int) (sim.Time, bool) {
	if dev >= len(p.horizons) {
		return 0, false
	}
	return p.horizons[dev].until, p.horizons[dev].set
}

func TestPerfPrefersFasterDevice(t *testing.T) {
	p := NewPerf()
	k := kernel("k")
	v := paperView()
	// Teach: device 1 is 10x faster.
	warmUp(p, k, 0, 1)
	for i := 0; i < WarmupInstances; i++ {
		p.Completed(inst(k, i, 0, 100, -1), 0, 1000)
		p.Completed(inst(k, i, 0, 100, -1), 1, 100)
	}
	gpuCount := 0
	for i := 0; i < 10; i++ {
		in := inst(k, 100+i, 0, 100, -1)
		dev, _ := p.OnReady(in, v)
		p.Placed(in, dev)
		if dev == 1 {
			gpuCount++
		}
	}
	// Earliest-finish with a 10x rate gap: device 1 should take ~10/11
	// of the work; certainly a large majority.
	if gpuCount < 8 {
		t.Fatalf("fast device got %d/10 instances, want >= 8", gpuCount)
	}
}

func TestPerfBusyHorizonBalances(t *testing.T) {
	p := NewPerf()
	k := kernel("k")
	v := paperView()
	// Equal per-chunk durations (the runtime reports dedicated-
	// equivalent times, so these are directly comparable): the busy
	// horizons must make the assignments alternate evenly.
	warmUp(p, k, 0, 1)
	for i := 0; i < WarmupInstances; i++ {
		p.Completed(inst(k, i, 0, 100, -1), 0, 500)
		p.Completed(inst(k, i, 0, 100, -1), 1, 500)
	}
	counts := map[int]int{}
	for i := 0; i < 10; i++ {
		in := inst(k, 100+i, 0, 100, -1)
		dev, _ := p.OnReady(in, v)
		p.Placed(in, dev)
		counts[dev]++
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("equal devices got %v, want 5/5", counts)
	}
}

func TestPerfRateLearningRunningMean(t *testing.T) {
	p := NewPerf()
	k := kernel("k")
	p.Completed(inst(k, 0, 0, 100, -1), 1, 1000) // 10 ns/elem
	p.Completed(inst(k, 1, 0, 100, -1), 1, 3000) // 30 ns/elem
	r := p.Snapshot().rates[kernelDev{"k", 1}]
	if r.samples != 2 || r.nsPerUnit != 20 {
		t.Fatalf("rate = %+v, want mean 20 ns/elem over 2 samples", r)
	}
	// Zero-length instances must not poison the estimate.
	p.Completed(inst(k, 2, 5, 5, -1), 1, 1000)
	if r := p.Snapshot().rates[kernelDev{"k", 1}]; r.samples != 2 {
		t.Fatal("zero-elem completion was folded into the profile")
	}
}

func TestPerfSeedSkipsWarmup(t *testing.T) {
	trained := NewPerf()
	k := kernel("k")
	warmUp(trained, k, 0, 1)
	for i := 0; i < WarmupInstances; i++ {
		trained.Completed(inst(k, i, 0, 100, -1), 0, 1000)
		trained.Completed(inst(k, i, 0, 100, -1), 1, 100)
	}
	fresh := NewPerf()
	fresh.Seed(trained.Snapshot())
	v := paperView()
	dev, _ := fresh.OnReady(inst(k, 9, 0, 100, -1), v)
	if dev != 1 {
		t.Fatalf("seeded scheduler sent first instance to %d, want fast device 1", dev)
	}
}

func TestPerfSyncClockClampsHorizons(t *testing.T) {
	p := NewPerf()
	k := kernel("k")
	p.Completed(inst(k, 0, 0, 100, -1), 1, 100) // 1 ns/elem
	p.Placed(inst(k, 1, 0, 100, -1), 1)         // horizon 100
	p.SyncClock(500)
	if h, _ := p.horizonOf(1); h != 500 {
		t.Fatalf("horizon = %v, want clamped to 500", h)
	}
	p.SyncClock(200) // never moves backwards
	if h, _ := p.horizonOf(1); h != 500 {
		t.Fatalf("horizon went backwards: %v", h)
	}
}

// TestPerfFirstPlacementHorizon pins the absent-horizon rule: a device
// never placed on has no horizon, so SyncClock does not clamp it, and
// its first placement at now > 0 adds the estimate to 0, not to now.
// The horizon holds only that estimate until the next SyncClock.
func TestPerfFirstPlacementHorizon(t *testing.T) {
	p := NewPerf()
	k := kernel("k")
	p.Completed(inst(k, 0, 0, 100, -1), 1, 100) // 1 ns/elem
	p.SyncClock(500)
	if h, ok := p.horizonOf(1); ok {
		t.Fatalf("unplaced device has horizon %v after SyncClock", h)
	}
	p.Placed(inst(k, 1, 0, 100, -1), 1)
	if h, ok := p.horizonOf(1); !ok || h != 100 {
		t.Fatalf("first placement at now 500: horizon %v (set %v), want 100", h, ok)
	}
	p.SyncClock(600)
	if h, _ := p.horizonOf(1); h != 600 {
		t.Fatalf("horizon = %v after SyncClock(600), want 600", h)
	}
}

func TestPerfUnknownKernelExplores(t *testing.T) {
	p := NewPerf()
	if est := p.kernel(kernel("new")).estimate(0, 100); est != 0 {
		t.Fatalf("unknown kernel estimate = %v, want 0 (optimistic exploration)", est)
	}
}

func TestStaticDeclinesUnpinned(t *testing.T) {
	s := NewStatic()
	if s.Overhead() != 0 {
		t.Fatal("static policy must have zero decision overhead")
	}
	if s.OnIdle(0, nil, paperView()) != nil {
		t.Fatal("static OnIdle must return nil")
	}
	if _, ok := s.OnReady(inst(kernel("k"), 0, 0, 10, -1), paperView()); ok {
		t.Error("static OnReady placed an unpinned instance; it must decline")
	}
}

func TestPolicyNames(t *testing.T) {
	if NewDep().Name() != "DP-Dep" || NewPerf().Name() != "DP-Perf" || NewStatic().Name() != "static" {
		t.Fatal("policy names wrong")
	}
}
