package apps

import (
	"fmt"

	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// Triangular is the imbalanced-workload specimen from Glinda's ICS'14
// companion paper (reference [9]): row reductions over a packed
// lower-triangular matrix, so row i costs i+1 elements — the heaviest
// row is n times the lightest. A uniform partitioning model misplaces
// the split badly here; the weighted pipeline
// (glinda.AnalyzeImbalanced) balances weight, not elements, and the
// CPU-side chunks are cut weight-equal (glinda.CutWeighted) so all m
// threads stay busy. Both price weight over ranges with Flops, which
// is exact in float64 up to n ≈ 4.7·10^7 rows (8·triOff(n) < 2^53),
// so a range's weight equals the sum of its rows' weights.
type Triangular struct{}

// NewTriangular returns the application.
func NewTriangular() Triangular { return Triangular{} }

// Name implements App.
func (Triangular) Name() string { return "Triangular" }

// DefaultN implements App: 32768 rows (a 2.1 GB packed triangle).
func (Triangular) DefaultN() int64 { return 32768 }

// DefaultIters implements App.
func (Triangular) DefaultIters() int { return 1 }

const triFlopsPerElem = 8

// triOff returns the packed offset of row r (elements before it).
func triOff(r int64) int64 { return r * (r + 1) / 2 }

// Build implements App.
func (tr Triangular) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(tr.DefaultN(), 1)
	if err != nil {
		return nil, err
	}
	n := v.N
	// triOff(r) computes r·(r+1) for every row r <= n.
	if _, err := elems(tr.Name(), n, n+1); err != nil {
		return nil, err
	}
	packed := triOff(n)

	dir := mem.NewDirectory(v.Spaces)
	data := dir.Register("tri", packed, 4)
	out := dir.Register("out", n, 4)
	if err := dir.Err(); err != nil {
		return nil, err
	}

	kernel := &task.Kernel{
		Name:      "tri_reduce",
		Size:      n,
		Precision: device.SP,
		Eff:       nbodyEff, // compute-heavy profile: GPU ~4x the CPU
		Flops: func(lo, hi int64) float64 {
			return triFlopsPerElem * float64(triOff(hi)-triOff(lo))
		},
		MemBytes: func(lo, hi int64) float64 {
			return 4 * float64(triOff(hi)-triOff(lo))
		},
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{
				rw(data, triOff(lo), triOff(hi), task.Read),
				rw(out, lo, hi, task.Write),
			}
		},
	}

	p := &Problem{
		AppName:   tr.Name(),
		N:         n,
		Iters:     1,
		Dir:       dir,
		Phases:    []Phase{{Kernel: kernel, SyncAfter: true}},
		Structure: classify.Structure{Flow: classify.Call{Kernel: kernel.Name}},
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		if n > 2048 {
			return nil, fmt.Errorf("apps: Triangular compute mode needs n <= 2048, got %d", n)
		}
		src := make([]float32, packed)
		res := make([]float32, n)
		for i := range src {
			src[i] = float32((i*17)%101) / 101
		}
		kernel.Compute = func(lo, hi int64) {
			for r := lo; r < hi; r++ {
				var acc float32
				row := src[triOff(r):triOff(r+1)]
				for j, v := range row {
					// A cheap position-dependent reduction (8-ish ops).
					acc += v * float32(j%7+1)
				}
				res[r] = acc
			}
		}
		want := make([]float32, n)
		for r := int64(0); r < n; r++ {
			var acc float32
			row := src[triOff(r):triOff(r+1)]
			for j, v := range row {
				acc += v * float32(j%7+1)
			}
			want[r] = acc
		}
		p.Verify = func() error { return checkClose("out", res, want, 1e-4) }
	}
	return p, nil
}
