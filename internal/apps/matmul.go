package apps

import (
	"fmt"

	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// MatrixMul is the paper's first SK-One application: a dense
// single-precision matrix-matrix multiplication A×B=C from the NVIDIA
// OpenCL SDK. The iteration space is the rows of C (row-wise
// partitioning, Section IV-B1): every task instance receives a block
// of consecutive rows of A plus the full B — which is why the GPU
// partition's transfer bytes have a large constant term.
type MatrixMul struct{}

// NewMatrixMul returns the application.
func NewMatrixMul() MatrixMul { return MatrixMul{} }

// Name implements App.
func (MatrixMul) Name() string { return "MatrixMul" }

// DefaultN implements App: 6144×6144 (0.4 GB of float32 matrices).
func (MatrixMul) DefaultN() int64 { return 6144 }

// DefaultIters implements App.
func (MatrixMul) DefaultIters() int { return 1 }

// Build implements App.
func (m MatrixMul) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(m.DefaultN(), 1)
	if err != nil {
		return nil, err
	}
	n := v.N
	nn, err := elems(m.Name(), n, n)
	if err != nil {
		return nil, err
	}
	dir := mem.NewDirectory(v.Spaces)
	bufA := dir.Register("A", nn, 4)
	bufB := dir.Register("B", nn, 4)
	bufC := dir.Register("C", nn, 4)
	if err := dir.Err(); err != nil {
		return nil, err
	}

	kernel := &task.Kernel{
		Name:      "matrix_mul",
		Size:      n,
		Precision: device.SP,
		Eff:       matmulEff,
		// 2·N² flops per row of C.
		Flops: func(lo, hi int64) float64 { return 2 * float64(n) * float64(n) * float64(hi-lo) },
		// Device-memory traffic per row: A row + C row + tiled B
		// reuse (cache behaviour is folded into the efficiency
		// factors; the kernel is compute-bound either way).
		MemBytes: func(lo, hi int64) float64 { return 12 * float64(n) * float64(hi-lo) },
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{
				rw(bufA, lo*n, hi*n, task.Read),
				rw(bufB, 0, nn, task.Read), // full B: the broadcast input
				rw(bufC, lo*n, hi*n, task.Write),
			}
		},
	}

	p := &Problem{
		AppName:   m.Name(),
		N:         n,
		Iters:     1,
		Dir:       dir,
		Phases:    []Phase{{Kernel: kernel, SyncAfter: true}},
		Structure: classify.Structure{Flow: classify.Call{Kernel: kernel.Name}},
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		if n > 2048 {
			return nil, fmt.Errorf("apps: MatrixMul compute mode needs n <= 2048, got %d (O(n^3) host work)", n)
		}
		a := make([]float32, n*n)
		b := make([]float32, n*n)
		c := make([]float32, n*n)
		for i := range a {
			a[i] = float32((i*7+3)%11) / 11
			b[i] = float32((i*5+1)%13) / 13
		}
		want := make([]float32, n*n)
		for i := int64(0); i < n; i++ {
			for k := int64(0); k < n; k++ {
				aik := a[i*n+k]
				if aik == 0 {
					continue
				}
				row := b[k*n : (k+1)*n]
				out := want[i*n : (i+1)*n]
				for j := range out {
					out[j] += aik * row[j]
				}
			}
		}
		kernel.Compute = func(lo, hi int64) {
			for i := lo; i < hi; i++ {
				out := c[i*n : (i+1)*n]
				for j := range out {
					out[j] = 0
				}
				for k := int64(0); k < n; k++ {
					aik := a[i*n+k]
					if aik == 0 {
						continue
					}
					row := b[k*n : (k+1)*n]
					for j := range out {
						out[j] += aik * row[j]
					}
				}
			}
		}
		p.Verify = func() error { return checkClose("C", c, want, 1e-4) }
	}
	return p, nil
}
