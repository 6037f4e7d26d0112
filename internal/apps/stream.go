package apps

import (
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// STREAM (McCalpin's memory-bandwidth benchmark) supplies the paper's
// multi-kernel applications: four kernels — copy (c=a), scale (b=k·c),
// add (c=a+b), triad (a=b+k·c) — over three float32 arrays.
//
//	STREAM-Seq  (MK-Seq):  the four kernels once
//	STREAM-Loop (MK-Loop): the four kernels iterated
//
// Both are evaluated with and without inter-kernel synchronization
// (Section IV-B3/4); the Sync variant field selects it. The kernels
// are purely bandwidth-bound, and on the paper's platform the PCIe
// transfers dominate the GPU side (≈90% of its time), which drives the
// unified split toward the CPU (44%/56% GPU/CPU, Fig 10).
const streamScalar = 3.0

// streamKernelSpec describes one of the four kernels generically.
type streamKernelSpec struct {
	name  string
	flops float64 // per element
	bytes float64 // device traffic per element (reads+writes, 4 B each)
}

var streamSpecs = []streamKernelSpec{
	{"copy", 0, 8},
	{"scale", 1, 8},
	{"add", 1, 12},
	{"triad", 2, 12},
}

// streamApp implements both STREAM variants.
type streamApp struct {
	name  string
	loop  bool
	iters int
}

// NewStreamSeq returns STREAM-Seq (MK-Seq: one pass over the four
// kernels, the paper's iteration-limited configuration).
func NewStreamSeq() App { return &streamApp{name: "STREAM-Seq", loop: false, iters: 1} }

// NewStreamLoop returns STREAM-Loop (MK-Loop: the original iterated
// form).
func NewStreamLoop() App { return &streamApp{name: "STREAM-Loop", loop: true, iters: 10} }

// Name implements App.
func (s *streamApp) Name() string { return s.name }

// DefaultN implements App: 62,914,560 array elements (float32; ≈0.75 GB
// over the three arrays).
func (s *streamApp) DefaultN() int64 { return 62_914_560 }

// DefaultIters implements App.
func (s *streamApp) DefaultIters() int { return s.iters }

// Build implements App.
func (s *streamApp) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(s.DefaultN(), s.DefaultIters())
	if err != nil {
		return nil, err
	}
	if !s.loop {
		v.Iters = 1
	}
	n := v.N
	iters := v.Iters
	sync := v.Sync == SyncForced // default is the original no-sync form

	dir := mem.NewDirectory(v.Spaces)
	bufA := dir.Register("a", n, 4)
	bufB := dir.Register("b", n, 4)
	bufC := dir.Register("c", n, 4)
	if err := dir.Err(); err != nil {
		return nil, err
	}

	var a, b, c []float32

	// Per-kernel read/write buffers and compute bodies.
	type binding struct {
		spec    streamKernelSpec
		reads   []*mem.Buffer
		writes  []*mem.Buffer
		compute func(lo, hi int64)
	}
	bindings := []binding{
		{spec: streamSpecs[0], reads: []*mem.Buffer{bufA}, writes: []*mem.Buffer{bufC},
			compute: func(lo, hi int64) {
				copy(c[lo:hi], a[lo:hi])
			}},
		{spec: streamSpecs[1], reads: []*mem.Buffer{bufC}, writes: []*mem.Buffer{bufB},
			compute: func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					b[i] = streamScalar * c[i]
				}
			}},
		{spec: streamSpecs[2], reads: []*mem.Buffer{bufA, bufB}, writes: []*mem.Buffer{bufC},
			compute: func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					c[i] = a[i] + b[i]
				}
			}},
		{spec: streamSpecs[3], reads: []*mem.Buffer{bufB, bufC}, writes: []*mem.Buffer{bufA},
			compute: func(lo, hi int64) {
				for i := lo; i < hi; i++ {
					a[i] = b[i] + streamScalar*c[i]
				}
			}},
	}

	kernels := make([]*task.Kernel, len(bindings))
	for i, bind := range bindings {
		bind := bind
		k := &task.Kernel{
			Name:      bind.spec.name,
			Size:      n,
			Precision: device.SP,
			Eff:       streamEff,
			Flops:     func(lo, hi int64) float64 { return bind.spec.flops * float64(hi-lo) },
			MemBytes:  func(lo, hi int64) float64 { return bind.spec.bytes * float64(hi-lo) },
			Accesses: func(lo, hi int64) []task.Access {
				out := make([]task.Access, 0, len(bind.reads)+len(bind.writes))
				for _, r := range bind.reads {
					out = append(out, rw(r, lo, hi, task.Read))
				}
				for _, w := range bind.writes {
					out = append(out, rw(w, lo, hi, task.Write))
				}
				return out
			},
		}
		if v.Compute {
			k.Compute = bind.compute
		}
		kernels[i] = k
	}

	// Kernel structure IR.
	seq := make(classify.Seq, len(kernels))
	for i, k := range kernels {
		seq[i] = classify.Call{Kernel: k.Name}
	}
	var flow classify.Node = seq
	if s.loop {
		flow = classify.Loop{Body: seq, Trips: iters}
	}

	p := &Problem{
		AppName:   s.name,
		N:         n,
		Iters:     iters,
		Dir:       dir,
		Structure: classify.Structure{Flow: flow, InterKernelSync: sync},
	}
	for it := 0; it < iters; it++ {
		for _, k := range kernels {
			p.Phases = append(p.Phases, Phase{Kernel: k, SyncAfter: sync})
		}
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		a = make([]float32, n)
		b = make([]float32, n)
		c = make([]float32, n)
		for i := range a {
			a[i] = 1 + float32(i%10)
			b[i] = 2
			c[i] = 0
		}
		// Sequential reference.
		ra := append([]float32(nil), a...)
		rb := append([]float32(nil), b...)
		rc := append([]float32(nil), c...)
		for it := 0; it < iters; it++ {
			copy(rc, ra)
			for i := range rb {
				rb[i] = streamScalar * rc[i]
			}
			for i := range rc {
				rc[i] = ra[i] + rb[i]
			}
			for i := range ra {
				ra[i] = rb[i] + streamScalar*rc[i]
			}
		}
		p.Verify = func() error {
			if err := checkClose("a", a, ra, 1e-5); err != nil {
				return err
			}
			if err := checkClose("b", b, rb, 1e-5); err != nil {
				return err
			}
			return checkClose("c", c, rc, 1e-5)
		}
	}
	return p, nil
}
