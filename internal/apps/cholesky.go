package apps

import (
	"fmt"
	"math"

	"heteropart/internal/apierr"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// Cholesky is the Class-V (MK-DAG) specimen: a blocked right-looking
// Cholesky factorization over a lower-triangular grid of tiles, the
// canonical OmpSs task-DAG workload. The paper excludes MK-DAG from
// its performance figures (only dynamic strategies apply, Section IV);
// this application exists so the analyzer and the dynamic schedulers
// are exercised on a real DAG, and it powers the dagflow example.
//
// Each kernel invocation (potrf/trsm/syrk/gemm on specific tiles) is
// one indivisible task instance; dependencies between them emerge from
// the tile accesses.
type Cholesky struct{}

// NewCholesky returns the application.
func NewCholesky() Cholesky { return Cholesky{} }

// Name implements App.
func (Cholesky) Name() string { return "Cholesky" }

// DefaultN implements App: the matrix dimension (tiles are
// choleskyTile × choleskyTile).
func (Cholesky) DefaultN() int64 { return 8192 }

// DefaultIters implements App.
func (Cholesky) DefaultIters() int { return 1 }

const choleskyTile = 512

// Build implements App. The tile size shrinks for small problems so
// compute-mode tests stay cheap.
func (ch Cholesky) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(ch.DefaultN(), 1)
	if err != nil {
		return nil, err
	}
	n := v.N
	ts := int64(choleskyTile)
	if n < ts*2 {
		ts = n / 4
	}
	if ts < 1 || n%ts != 0 {
		return nil, fmt.Errorf("apps: Cholesky needs n divisible into tiles (n=%d, ts=%d): %w", n, ts, apierr.ErrOptionsInvalid)
	}
	T := n / ts // tiles per dimension
	// The tiles cover the n×n matrix, so its count bounds ts² too.
	if _, err := elems(ch.Name(), n, n); err != nil {
		return nil, err
	}
	// Step k unrolls one potrf, T-1-k trsm and syrk and C(T-1-k, 2)
	// gemm phases: T² + T(T-1)(T-2)/6 in all, capped as a loop's trip
	// count is. Float64 holds the count exactly below the cap and
	// cannot overflow above it.
	if phases := float64(T*T) + float64(T)*float64(T-1)*float64(T-2)/6; phases > maxIters {
		return nil, fmt.Errorf("apps: Cholesky n=%d unrolls %.0f phases, past the %d cap: %w",
			n, phases, maxIters, apierr.ErrOptionsInvalid)
	}

	dir := mem.NewDirectory(v.Spaces)
	tileBuf := make(map[[2]int64]*mem.Buffer)
	for i := int64(0); i < T; i++ {
		for j := int64(0); j <= i; j++ {
			tileBuf[[2]int64{i, j}] = dir.Register(fmt.Sprintf("t%d_%d", i, j), ts*ts, 8)
		}
	}
	if err := dir.Err(); err != nil {
		return nil, err
	}

	var tiles map[[2]int64][]float64
	if v.Compute {
		if n > 512 {
			return nil, fmt.Errorf("apps: Cholesky compute mode needs n <= 512, got %d", n)
		}
		tiles = make(map[[2]int64][]float64)
		for key := range tileBuf {
			tiles[key] = make([]float64, ts*ts)
		}
		// SPD source matrix: strong diagonal + smooth off-diagonal.
		for i := int64(0); i < n; i++ {
			for j := int64(0); j <= i; j++ {
				val := 1.0 / (1.0 + float64(i-j))
				if i == j {
					val += float64(n)
				}
				tiles[[2]int64{i / ts, j / ts}][(i%ts)*ts+(j%ts)] = val
			}
		}
	}

	elems := ts * ts
	scale := func(total float64) func(lo, hi int64) float64 {
		return func(lo, hi int64) float64 { return total * float64(hi-lo) / float64(elems) }
	}
	tsf := float64(ts)

	type phaseSpec struct {
		name    string
		flops   float64
		reads   [][2]int64
		writes  [][2]int64
		compute func()
	}
	var specs []phaseSpec

	potrf := func(dst []float64) {
		for j := int64(0); j < ts; j++ {
			d := dst[j*ts+j]
			for k := int64(0); k < j; k++ {
				d -= dst[j*ts+k] * dst[j*ts+k]
			}
			d = math.Sqrt(d)
			dst[j*ts+j] = d
			for i := j + 1; i < ts; i++ {
				v := dst[i*ts+j]
				for k := int64(0); k < j; k++ {
					v -= dst[i*ts+k] * dst[j*ts+k]
				}
				dst[i*ts+j] = v / d
			}
			for k := j + 1; k < ts; k++ {
				dst[j*ts+k] = 0
			}
		}
	}
	trsm := func(l, x []float64) { // x = x · L^{-T}
		for i := int64(0); i < ts; i++ {
			for j := int64(0); j < ts; j++ {
				v := x[i*ts+j]
				for k := int64(0); k < j; k++ {
					v -= x[i*ts+k] * l[j*ts+k]
				}
				x[i*ts+j] = v / l[j*ts+j]
			}
		}
	}
	syrk := func(a, dst []float64) { // dst -= a·aᵀ (lower part used)
		for i := int64(0); i < ts; i++ {
			for j := int64(0); j <= i; j++ {
				var v float64
				for k := int64(0); k < ts; k++ {
					v += a[i*ts+k] * a[j*ts+k]
				}
				dst[i*ts+j] -= v
			}
		}
	}
	gemm := func(a, b, dst []float64) { // dst -= a·bᵀ
		for i := int64(0); i < ts; i++ {
			for j := int64(0); j < ts; j++ {
				var v float64
				for k := int64(0); k < ts; k++ {
					v += a[i*ts+k] * b[j*ts+k]
				}
				dst[i*ts+j] -= v
			}
		}
	}

	for k := int64(0); k < T; k++ {
		k := k
		specs = append(specs, phaseSpec{
			name: "potrf", flops: tsf * tsf * tsf / 3,
			writes:  [][2]int64{{k, k}},
			compute: func() { potrf(tiles[[2]int64{k, k}]) },
		})
		for i := k + 1; i < T; i++ {
			i := i
			specs = append(specs, phaseSpec{
				name: "trsm", flops: tsf * tsf * tsf,
				reads:   [][2]int64{{k, k}},
				writes:  [][2]int64{{i, k}},
				compute: func() { trsm(tiles[[2]int64{k, k}], tiles[[2]int64{i, k}]) },
			})
		}
		for i := k + 1; i < T; i++ {
			i := i
			specs = append(specs, phaseSpec{
				name: "syrk", flops: tsf * tsf * tsf,
				reads:   [][2]int64{{i, k}},
				writes:  [][2]int64{{i, i}},
				compute: func() { syrk(tiles[[2]int64{i, k}], tiles[[2]int64{i, i}]) },
			})
			for j := k + 1; j < i; j++ {
				j := j
				specs = append(specs, phaseSpec{
					name: "gemm", flops: 2 * tsf * tsf * tsf,
					reads:   [][2]int64{{i, k}, {j, k}},
					writes:  [][2]int64{{i, j}},
					compute: func() { gemm(tiles[[2]int64{i, k}], tiles[[2]int64{j, k}], tiles[[2]int64{i, j}]) },
				})
			}
		}
	}

	p := &Problem{
		AppName:      ch.Name(),
		N:            n,
		Iters:        1,
		Dir:          dir,
		AtomicPhases: true,
	}
	lastWriter := make(map[[2]int64]int)
	var dagCalls []classify.DAGCall
	for idx, sp := range specs {
		sp := sp
		k := &task.Kernel{
			Name:      sp.name,
			Size:      elems,
			Precision: device.DP,
			Eff:       choleskyEff,
			Flops:     scale(sp.flops),
			MemBytes:  scale(float64(len(sp.reads)+len(sp.writes)*2) * tsf * tsf * 8),
			Accesses: func(lo, hi int64) []task.Access {
				out := make([]task.Access, 0, len(sp.reads)+len(sp.writes))
				for _, r := range sp.reads {
					out = append(out, rw(tileBuf[r], 0, elems, task.Read))
				}
				for _, w := range sp.writes {
					out = append(out, rw(tileBuf[w], 0, elems, task.ReadWrite))
				}
				return out
			},
		}
		if v.Compute {
			k.Compute = func(lo, hi int64) { sp.compute() }
		}
		p.Phases = append(p.Phases, Phase{Kernel: k})

		var after []int
		seen := make(map[int]bool)
		for _, t := range append(append([][2]int64{}, sp.reads...), sp.writes...) {
			if w, ok := lastWriter[t]; ok && !seen[w] {
				seen[w] = true
				after = append(after, w)
			}
		}
		dagCalls = append(dagCalls, classify.DAGCall{Kernel: sp.name, After: after})
		for _, w := range sp.writes {
			lastWriter[w] = idx
		}
	}
	p.Structure = classify.Structure{
		Flow:            classify.DAG{Calls: dagCalls},
		InterKernelSync: false,
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		// Reference: dense sequential Cholesky of the same matrix.
		ref := make([]float64, n*n)
		for i := int64(0); i < n; i++ {
			for j := int64(0); j <= i; j++ {
				val := 1.0 / (1.0 + float64(i-j))
				if i == j {
					val += float64(n)
				}
				ref[i*n+j] = val
			}
		}
		for j := int64(0); j < n; j++ {
			d := ref[j*n+j]
			for k := int64(0); k < j; k++ {
				d -= ref[j*n+k] * ref[j*n+k]
			}
			d = math.Sqrt(d)
			ref[j*n+j] = d
			for i := j + 1; i < n; i++ {
				v := ref[i*n+j]
				for k := int64(0); k < j; k++ {
					v -= ref[i*n+k] * ref[j*n+k]
				}
				ref[i*n+j] = v / d
			}
		}
		p.Verify = func() error {
			for i := int64(0); i < n; i++ {
				for j := int64(0); j <= i; j++ {
					got := tiles[[2]int64{i / ts, j / ts}][(i%ts)*ts+(j%ts)]
					want := ref[i*n+j]
					if math.Abs(got-want) > 1e-8*math.Max(1, math.Abs(want)) {
						return fmt.Errorf("L[%d,%d] = %g, want %g", i, j, got, want)
					}
				}
			}
			return nil
		}
	}
	return p, nil
}
