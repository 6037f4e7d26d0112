package task

import (
	"testing"

	"heteropart/internal/device"
	"heteropart/internal/mem"
)

func testKernel(name string, size int64, buf *mem.Buffer, mode Mode) *Kernel {
	return &Kernel{
		Name:      name,
		Size:      size,
		Precision: device.SP,
		Flops:     func(lo, hi int64) float64 { return float64(hi-lo) * 10 },
		MemBytes:  func(lo, hi int64) float64 { return float64(hi-lo) * 8 },
		Accesses: func(lo, hi int64) []Access {
			return []Access{{Buf: buf, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: mode}}
		},
	}
}

func TestModePredicates(t *testing.T) {
	if !Read.Reads() || Read.Writes() {
		t.Fatal("Read predicates")
	}
	if Write.Reads() || !Write.Writes() {
		t.Fatal("Write predicates")
	}
	if !ReadWrite.Reads() || !ReadWrite.Writes() {
		t.Fatal("ReadWrite predicates")
	}
	if Read.String() != "in" || Write.String() != "out" || ReadWrite.String() != "inout" {
		t.Fatal("mode names")
	}
}

func TestKernelWorkAndEff(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	k := testKernel("k", 100, b, Read)
	w := k.Work(10, 30)
	if w.Flops != 200 || w.Bytes != 160 || w.Precision != device.SP {
		t.Fatalf("work = %+v", w)
	}
	if k.EffOn(device.GPU) != device.DefaultEfficiency {
		t.Fatal("missing eff should default")
	}
	k.Eff = map[device.Kind]device.Efficiency{device.GPU: {Compute: 0.9, Memory: 0.9}}
	if k.EffOn(device.GPU).Compute != 0.9 {
		t.Fatal("eff lookup failed")
	}
	if k.EffOn(device.CPU) != device.DefaultEfficiency {
		t.Fatal("other kinds should default")
	}
}

func TestKernelNilCostFuncs(t *testing.T) {
	k := &Kernel{Name: "bare", Size: 10}
	w := k.Work(0, 10)
	if w.Flops != 0 || w.Bytes != 0 {
		t.Fatalf("bare kernel work = %+v", w)
	}
	if k.AccessesOf(0, 10) != nil {
		t.Fatal("bare kernel accesses should be nil")
	}
}

func TestPlanSubmitBounds(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	k := testKernel("k", 100, b, Read)
	var p Plan
	in := p.Submit(k, 0, 50, Unpinned, 0)
	if in.ID != 0 || in.Elems() != 50 || len(in.Accesses) != 1 {
		t.Fatalf("instance = %+v", in)
	}
	in2 := p.Submit(k, 50, 100, 1, 1)
	if in2.ID != 1 || in2.Pin != 1 {
		t.Fatalf("second instance = %+v", in2)
	}
	if bad := p.Submit(k, 50, 200, Unpinned, 0); bad != nil {
		t.Error("out-of-bounds submit returned an instance")
	}
	if p.Err() == nil {
		t.Error("out-of-bounds submit did not record a plan error")
	}
	if len(p.Instances()) != 2 {
		t.Errorf("faulted submit appended: %d instances", len(p.Instances()))
	}
}

func TestPlanBarriersAndInstances(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	k := testKernel("k", 100, b, Read)
	var p Plan
	p.Submit(k, 0, 10, Unpinned, -1)
	p.Barrier()
	p.Submit(k, 10, 20, Unpinned, -1)
	p.Barrier()
	if p.Barriers() != 2 || len(p.Instances()) != 2 {
		t.Fatalf("barriers=%d instances=%d", p.Barriers(), len(p.Instances()))
	}
}

func TestBuildDepsRAW(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	w := testKernel("writer", 100, b, Write)
	r := testKernel("reader", 100, b, Read)
	var p Plan
	i1 := p.Submit(w, 0, 50, Unpinned, -1)
	i2 := p.Submit(r, 25, 75, Unpinned, -1) // overlaps i1: RAW
	i3 := p.Submit(r, 50, 100, Unpinned, -1)
	BuildDeps(&p)
	if len(i2.Deps) != 1 || i2.Deps[0] != i1 {
		t.Fatalf("i2 deps = %v", i2.Deps)
	}
	if len(i3.Deps) != 0 {
		t.Fatalf("i3 deps = %v (no overlap with writer)", i3.Deps)
	}
	if len(i1.Succs) != 1 || i1.Succs[0] != i2 {
		t.Fatalf("i1 succs = %v", i1.Succs)
	}
}

func TestBuildDepsWARandWAW(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	r := testKernel("reader", 100, b, Read)
	w := testKernel("writer", 100, b, Write)
	var p Plan
	i1 := p.Submit(r, 0, 100, Unpinned, -1)
	i2 := p.Submit(w, 0, 50, Unpinned, -1) // WAR on i1
	i3 := p.Submit(w, 0, 50, Unpinned, -1) // WAW on i2, WAR on i1
	BuildDeps(&p)
	if len(i2.Deps) != 1 || i2.Deps[0] != i1 {
		t.Fatalf("WAR missing: i2 deps = %v", i2.Deps)
	}
	has := func(in *Instance, dep *Instance) bool {
		for _, d := range in.Deps {
			if d == dep {
				return true
			}
		}
		return false
	}
	if !has(i3, i2) {
		t.Fatalf("WAW missing: i3 deps = %v", i3.Deps)
	}
}

func TestBuildDepsNoFalseReadRead(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	r := testKernel("reader", 100, b, Read)
	var p Plan
	p.Submit(r, 0, 100, Unpinned, -1)
	i2 := p.Submit(r, 0, 100, Unpinned, -1)
	BuildDeps(&p)
	if len(i2.Deps) != 0 {
		t.Fatalf("read-read created dep: %v", i2.Deps)
	}
}

func TestBuildDepsBarrierResets(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	w := testKernel("writer", 100, b, Write)
	r := testKernel("reader", 100, b, Read)
	var p Plan
	p.Submit(w, 0, 100, Unpinned, -1)
	p.Barrier()
	i2 := p.Submit(r, 0, 100, Unpinned, -1)
	BuildDeps(&p)
	if len(i2.Deps) != 0 {
		t.Fatalf("dep across barrier: %v (barrier already orders them)", i2.Deps)
	}
}

func TestBuildDepsIdempotent(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	w := testKernel("writer", 100, b, ReadWrite)
	var p Plan
	p.Submit(w, 0, 100, Unpinned, -1)
	i2 := p.Submit(w, 0, 100, Unpinned, -1)
	BuildDeps(&p)
	BuildDeps(&p)
	if len(i2.Deps) != 1 {
		t.Fatalf("rebuild duplicated deps: %v", i2.Deps)
	}
}

func TestBuildDepsMultiBuffer(t *testing.T) {
	d := mem.NewDirectory(1)
	a := d.Register("a", 100, 8)
	c := d.Register("c", 100, 8)
	// copy: c = a  (reads a, writes c)
	copyK := &Kernel{
		Name: "copy", Size: 100, Precision: device.DP,
		Accesses: func(lo, hi int64) []Access {
			return []Access{
				{Buf: a, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: Read},
				{Buf: c, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: Write},
			}
		},
	}
	// scale: a = k*c (reads c, writes a)
	scaleK := &Kernel{
		Name: "scale", Size: 100, Precision: device.DP,
		Accesses: func(lo, hi int64) []Access {
			return []Access{
				{Buf: c, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: Read},
				{Buf: a, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: Write},
			}
		},
	}
	var p Plan
	i1 := p.Submit(copyK, 0, 50, Unpinned, 0)
	i2 := p.Submit(copyK, 50, 100, Unpinned, 1)
	i3 := p.Submit(scaleK, 0, 50, Unpinned, 0)
	i4 := p.Submit(scaleK, 50, 100, Unpinned, 1)
	BuildDeps(&p)
	// Same-chunk chains: i3 depends on i1 (RAW on c and WAR on a), not i2.
	if len(i3.Deps) != 1 || i3.Deps[0] != i1 {
		t.Fatalf("i3 deps = %v, want [i1]", i3.Deps)
	}
	if len(i4.Deps) != 1 || i4.Deps[0] != i2 {
		t.Fatalf("i4 deps = %v, want [i2]", i4.Deps)
	}
	if got := CriticalPathLen(&p); got != 2 {
		t.Fatalf("critical path = %d, want 2", got)
	}
	if !IsDAGAcyclic(&p) {
		t.Fatal("graph not acyclic")
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	r := testKernel("r", 100, b, Read)
	var p Plan
	for i := int64(0); i < 10; i++ {
		p.Submit(r, i*10, (i+1)*10, Unpinned, int(i))
	}
	BuildDeps(&p)
	if got := CriticalPathLen(&p); got != 1 {
		t.Fatalf("independent chunks critical path = %d, want 1", got)
	}
}

func TestInstanceStringAndWork(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	k := testKernel("k", 100, b, Read)
	var p Plan
	in := p.Submit(k, 10, 40, Unpinned, -1)
	if in.String() != "k#0[10,40)" {
		t.Fatalf("string = %q", in.String())
	}
	w := in.Work()
	if w.Flops != 300 || w.Bytes != 240 {
		t.Fatalf("work = %+v", w)
	}
	neg := &Instance{Kernel: k, Lo: 50, Hi: 40}
	if neg.Elems() != 0 {
		t.Fatal("negative-range elems")
	}
}

func TestAccessString(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("buf", 100, 4)
	a := Access{Buf: b, Interval: mem.Interval{Lo: 1, Hi: 5}, Mode: Write}
	if a.String() != "out(buf[1,5))" {
		t.Fatalf("access string = %q", a.String())
	}
	if Mode(42).String() != "mode(42)" {
		t.Fatal("unknown mode string")
	}
}

func TestIsDAGAcyclicDetectsForwardEdge(t *testing.T) {
	d := mem.NewDirectory(1)
	b := d.Register("x", 100, 4)
	k := testKernel("k", 100, b, Read)
	var p Plan
	i1 := p.Submit(k, 0, 10, Unpinned, -1)
	i2 := p.Submit(k, 10, 20, Unpinned, -1)
	// Corrupt: a forward edge.
	i1.Deps = []*Instance{i2}
	if IsDAGAcyclic(&p) {
		t.Fatal("forward edge not detected")
	}
}
