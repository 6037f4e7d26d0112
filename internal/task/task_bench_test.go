package task

import (
	"testing"

	"heteropart/internal/mem"
)

// pipelinePlan builds the STREAM-like pipeline of two kernels over
// two buffers with per-chunk chains: 8 passes of 64 chunks each, no
// barrier.
func pipelinePlan() *Plan {
	dir := mem.NewDirectory(2)
	bufA := dir.Register("a", 1<<20, 4)
	bufB := dir.Register("b", 1<<20, 4)
	mk := func(name string, in, out *mem.Buffer) *Kernel {
		return &Kernel{
			Name: name, Size: 1 << 20,
			Accesses: func(lo, hi int64) []Access {
				return []Access{
					{Buf: in, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: Read},
					{Buf: out, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: Write},
				}
			},
		}
	}
	k1 := mk("k1", bufA, bufB)
	k2 := mk("k2", bufB, bufA)
	var p Plan
	const chunks = 64
	for rep := 0; rep < 8; rep++ {
		for _, k := range []*Kernel{k1, k2} {
			for c := int64(0); c < chunks; c++ {
				sz := int64(1<<20) / chunks
				p.Submit(k, c*sz, (c+1)*sz, Unpinned, int(c))
			}
		}
	}
	return &p
}

// streamLoopPlan builds STREAM-Loop's shape: iters passes of copy,
// scale, add and triad over three buffers, each kernel cut into m
// chunks, with a taskwait after every kernel when sync is set. Synced,
// every barrier window holds m disjoint chunks, so the plan has no
// edges; unsynced, the dependence window spans the whole loop.
func streamLoopPlan(m, iters int, sync bool) *Plan {
	const n = 1 << 20
	dir := mem.NewDirectory(2)
	a := dir.Register("a", n, 8)
	b := dir.Register("b", n, 8)
	c := dir.Register("c", n, 8)
	mk := func(name string, out *mem.Buffer, in ...*mem.Buffer) *Kernel {
		return &Kernel{
			Name: name, Size: n,
			Accesses: func(lo, hi int64) []Access {
				iv := mem.Interval{Lo: lo, Hi: hi}
				accs := make([]Access, 0, len(in)+1)
				for _, buf := range in {
					accs = append(accs, Access{Buf: buf, Interval: iv, Mode: Read})
				}
				return append(accs, Access{Buf: out, Interval: iv, Mode: Write})
			},
		}
	}
	kernels := []*Kernel{mk("copy", c, a), mk("scale", b, c), mk("add", c, a, b), mk("triad", a, b, c)}
	var p Plan
	for it := 0; it < iters; it++ {
		for _, k := range kernels {
			for _, iv := range (mem.Interval{Hi: n}).AppendSplit(nil, m) {
				p.Submit(k, iv.Lo, iv.Hi, Unpinned, -1)
			}
			if sync {
				p.Barrier()
			}
		}
	}
	return &p
}

// BenchmarkBuildDeps measures dependence analysis on three plan
// shapes: a no-barrier pipeline with per-chunk chains, STREAM-Loop
// forced to sync after every kernel at m = 48 (1920 instances, no
// edges, windows of 48), and STREAM-Loop without barriers at m = 12.
func BenchmarkBuildDeps(b *testing.B) {
	for _, c := range []struct {
		name string
		plan *Plan
	}{
		{"pipeline", pipelinePlan()},
		{"stream-sync-m48", streamLoopPlan(48, 10, true)},
		{"stream-loop-m12", streamLoopPlan(12, 10, false)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildDeps(c.plan)
			}
		})
	}
}

// TestBuildDepsAllocationCeiling pins the allocations of one BuildDeps
// on a multi-buffer plan (STREAM-Loop without barriers at m = 12):
// every history is carved from one slab and the per-instance state is
// one slice, so only the Deps slab grows. With Go 1.24 on amd64 a call
// takes 22 allocations. The ceiling may be lowered, never raised.
func TestBuildDepsAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates per call")
	}
	p := streamLoopPlan(12, 10, false)
	const ceiling = 22
	if got := testing.AllocsPerRun(20, func() { BuildDeps(p) }); got > ceiling {
		t.Errorf("%.0f allocations per BuildDeps, ceiling %d", got, ceiling)
	}
}

// BenchmarkPlanSubmit measures instance creation.
func BenchmarkPlanSubmit(b *testing.B) {
	dir := mem.NewDirectory(1)
	buf := dir.Register("a", 1<<30, 4)
	k := &Kernel{
		Name: "k", Size: 1 << 30,
		Accesses: func(lo, hi int64) []Access {
			return []Access{{Buf: buf, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: ReadWrite}}
		},
	}
	b.ResetTimer()
	var p Plan
	for i := 0; i < b.N; i++ {
		p.Submit(k, 0, 1024, Unpinned, i)
	}
}
