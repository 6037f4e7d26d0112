// Package apps implements the paper's six evaluation applications
// (Table II) plus a Class-V specimen:
//
//	MatrixMul     SK-One   dense matrix-matrix multiply (NVIDIA SDK)
//	BlackScholes  SK-One   European option pricing (NVIDIA SDK)
//	Nbody         SK-Loop  body interactions over time (Mont-Blanc)
//	HotSpot       SK-Loop  thermal grid simulation (Rodinia)
//	STREAM-Seq    MK-Seq   copy/scale/add/triad once (STREAM)
//	STREAM-Loop   MK-Loop  copy/scale/add/triad iterated (STREAM)
//	Cholesky      MK-DAG   blocked tile factorization (extension)
//	Convolution   MK-Seq   separable 2D convolution with a natural
//	                       inter-kernel sync requirement (extension)
//	Triangular    SK-One   imbalanced packed-triangular reduction
//	                       (Glinda ICS'14 extension)
//
// Every application provides real Go kernel implementations (compute
// mode, used by correctness tests), a calibrated cost model (timing
// mode, used by the paper-scale benchmarks), OmpSs-style access
// declarations, and its kernel structure for the classifier.
package apps

import (
	"fmt"
	"math"
	"strings"

	"heteropart/internal/apierr"
	"heteropart/internal/classify"
	"heteropart/internal/mem"
	"heteropart/internal/names"
	"heteropart/internal/task"
)

// SyncMode selects the inter-kernel synchronization variant for
// applications evaluated both ways (STREAM-Seq/Loop, Section IV-B3).
type SyncMode int

const (
	// SyncDefault uses the application's natural behaviour.
	SyncDefault SyncMode = iota
	// SyncForced adds a taskwait after every kernel ("w" variants).
	SyncForced
	// SyncNone removes inter-kernel taskwaits ("w/o" variants).
	SyncNone
)

// syncNames spells each SyncMode for flags and request fields.
var syncNames = [...]string{SyncDefault: "default", SyncForced: "forced", SyncNone: "none"}

// MarshalText spells the mode "default", "forced" or "none".
func (m SyncMode) MarshalText() ([]byte, error) {
	if m < 0 || int(m) >= len(syncNames) {
		return nil, fmt.Errorf("apps: unknown sync mode %d", int(m))
	}
	return []byte(syncNames[m]), nil
}

// UnmarshalText reads "default", "forced" or "none"; the empty string
// reads as SyncDefault.
func (m *SyncMode) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*m = SyncDefault
		return nil
	}
	for i, name := range syncNames {
		if string(text) == name {
			*m = SyncMode(i)
			return nil
		}
	}
	return fmt.Errorf("apps: unknown sync mode %q (want default, forced or none)", string(text))
}

// Variant parameterizes one problem instantiation.
type Variant struct {
	// N is the problem size in iteration-space elements; 0 uses the
	// application default (the paper's evaluation size).
	N int64
	// Iters is the loop trip count for iterative classes; 0 uses the
	// default.
	Iters int
	// Sync selects the synchronization variant.
	Sync SyncMode
	// Spaces is the number of memory spaces (1 + accelerators);
	// 0 means 2 (the paper's CPU+GPU platform).
	Spaces int
	// Compute allocates real data and enables kernel execution.
	Compute bool
}

// maxIters caps a variant's loop trip count, as strategy.Options caps
// chunks: Build unrolls every iteration into phases.
const maxIters = 1 << 16

// withDefaults fills zero fields with the application's defaults. It
// refuses a trip count above maxIters with an error wrapping
// apierr.ErrOptionsInvalid.
func (v Variant) withDefaults(defN int64, defIters int) (Variant, error) {
	if v.Iters > maxIters {
		return v, fmt.Errorf("apps: %d iterations exceed the %d cap: %w", v.Iters, maxIters, apierr.ErrOptionsInvalid)
	}
	if v.N <= 0 {
		v.N = defN
	}
	if v.Iters <= 0 {
		v.Iters = defIters
	}
	if v.Spaces <= 0 {
		v.Spaces = 2
	}
	return v, nil
}

// elems returns a·b, the element count of an a×b array, refusing a
// negative factor or a product past MaxInt64 with an error wrapping
// apierr.ErrOptionsInvalid.
func elems(app string, a, b int64) (int64, error) {
	if a < 0 || b < 0 || (a > 0 && b > math.MaxInt64/a) {
		return 0, fmt.Errorf("apps: %s size %d×%d overflows an element count: %w", app, a, b, apierr.ErrOptionsInvalid)
	}
	return a * b, nil
}

// Phase is one kernel invocation in the unrolled program order.
type Phase struct {
	Kernel *task.Kernel
	// SyncAfter marks an original taskwait following this kernel.
	SyncAfter bool
}

// Problem is an instantiated workload: buffers registered in a fresh
// directory, the unrolled phase list, and (in compute mode) a
// verification closure comparing against the sequential reference.
type Problem struct {
	AppName string
	N       int64
	Iters   int
	Dir     *mem.Directory
	Phases  []Phase
	// Unique holds one representative kernel per distinct kernel name
	// in first-appearance order (Glinda profiles these).
	Unique []*task.Kernel
	// Structure is the kernel structure for the classifier.
	Structure classify.Structure
	// AtomicPhases marks each phase as one indivisible task instance
	// (DAG applications whose kernels operate on whole tiles);
	// strategies must not chunk them.
	AtomicPhases bool
	// Verify checks computed results against the reference; nil in
	// timing-only mode.
	Verify func() error
}

// Class classifies the problem's structure. Registry-built problems
// always carry a valid structure; a hand-built problem with an invalid
// one classifies as the zero class (SK-One).
func (p *Problem) Class() classify.Class {
	c, _ := classify.Classify(p.Structure)
	return c
}

// NeedsSync reports whether this problem's phases include inter-kernel
// synchronization.
func (p *Problem) NeedsSync() bool {
	for i, ph := range p.Phases {
		if ph.SyncAfter && i < len(p.Phases)-1 {
			return true
		}
	}
	return false
}

// KernelByName returns the representative kernel with the given name.
func (p *Problem) KernelByName(name string) *task.Kernel {
	for _, k := range p.Unique {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// collectUnique builds the Unique list from phases.
func collectUnique(phases []Phase) []*task.Kernel {
	var out []*task.Kernel
	seen := make(map[string]bool)
	for _, ph := range phases {
		if !seen[ph.Kernel.Name] {
			seen[ph.Kernel.Name] = true
			out = append(out, ph.Kernel)
		}
	}
	return out
}

// App builds problems.
type App interface {
	// Name is the application name as the paper spells it.
	Name() string
	// DefaultN is the paper's evaluation problem size.
	DefaultN() int64
	// DefaultIters is the paper's loop trip count (1 for non-loop).
	DefaultIters() int
	// Build instantiates a problem.
	Build(v Variant) (*Problem, error)
}

// Registry returns all applications in Table II order (plus the
// Class-V extension).
func Registry() []App {
	return []App{
		NewMatrixMul(),
		NewBlackScholes(),
		NewNbody(),
		NewHotSpot(),
		NewStreamSeq(),
		NewStreamLoop(),
		NewCholesky(),
		NewConvolution(),
		NewTriangular(),
	}
}

// ByName finds a registered application. Matching is
// case-insensitive; an unknown name suggests the closest registered
// spelling when one is close.
func ByName(name string) (App, error) {
	reg := Registry()
	for _, a := range reg {
		if strings.EqualFold(a.Name(), name) {
			return a, nil
		}
	}
	known := make([]string, len(reg))
	for i, a := range reg {
		known[i] = a.Name()
	}
	if sug := names.Closest(name, known); sug != "" {
		return nil, fmt.Errorf("apps: %w %q (did you mean %q?)", apierr.ErrUnknownApp, name, sug)
	}
	return nil, fmt.Errorf("apps: %w %q", apierr.ErrUnknownApp, name)
}

// rw is shorthand for a one-to-one interval access.
func rw(b *mem.Buffer, lo, hi int64, m task.Mode) task.Access {
	return task.Access{Buf: b, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: m}
}

// checkClose verifies two float32 slices elementwise within a relative
// tolerance, reporting the first mismatch.
func checkClose(name string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		d := g - w
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if w > 1 || w < -1 {
			if w < 0 {
				scale = -w
			} else {
				scale = w
			}
		}
		if d > tol*scale {
			return fmt.Errorf("%s[%d] = %g, want %g", name, i, g, w)
		}
	}
	return nil
}
