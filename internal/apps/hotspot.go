package apps

import (
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// HotSpot is the paper's second SK-Loop application: the Rodinia
// thermal-modeling 5-point stencil over a grid of cells, iterated in
// time with double-buffered temperature grids and a global
// synchronization point per iteration. Row-wise partitioning gives
// each chunk a one-row halo on either side, which is exactly what
// forces the per-iteration exchange (and, on the GPU side, the grid
// transfers that make Only-GPU lose to Only-CPU in Fig 7b).
type HotSpot struct{}

// NewHotSpot returns the application.
func NewHotSpot() HotSpot { return HotSpot{} }

// Name implements App.
func (HotSpot) Name() string { return "HotSpot" }

// DefaultN implements App: an 8192×8192 grid (0.75 GB across the three
// float32 arrays), iteration space = rows.
func (HotSpot) DefaultN() int64 { return 8192 }

// DefaultIters implements App.
func (HotSpot) DefaultIters() int { return 4 }

const (
	hotspotFlopsPerCell = 10
	hotspotAlpha        = 0.1
	hotspotBeta         = 0.05
)

// Build implements App.
func (h HotSpot) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(h.DefaultN(), h.DefaultIters())
	if err != nil {
		return nil, err
	}
	rows := v.N
	cols := rows
	iters := v.Iters
	cells, err := elems(h.Name(), rows, cols)
	if err != nil {
		return nil, err
	}

	dir := mem.NewDirectory(v.Spaces)
	tempBuf := [2]*mem.Buffer{
		dir.Register("temp0", cells, 4),
		dir.Register("temp1", cells, 4),
	}
	powerBuf := dir.Register("power", cells, 4)
	if err := dir.Err(); err != nil {
		return nil, err
	}

	// Real state (compute mode) — allocated before the per-iteration
	// kernels close over it.
	var temp [2][]float32
	var power []float32
	if v.Compute {
		temp[0] = make([]float32, rows*cols)
		temp[1] = make([]float32, rows*cols)
		power = make([]float32, rows*cols)
		for i := range temp[0] {
			temp[0][i] = 300 + float32(i%17)
			power[i] = float32(i%7) / 7
		}
	}

	step := func(in, out []float32, lo, hi int64) {
		at := func(r, c int64) float32 {
			if r < 0 {
				r = 0
			}
			if r >= rows {
				r = rows - 1
			}
			return in[r*cols+c]
		}
		for r := lo; r < hi; r++ {
			for c := int64(0); c < cols; c++ {
				t := in[r*cols+c]
				left, right := t, t
				if c > 0 {
					left = in[r*cols+c-1]
				}
				if c < cols-1 {
					right = in[r*cols+c+1]
				}
				up, down := at(r-1, c), at(r+1, c)
				out[r*cols+c] = t + hotspotAlpha*(up+down+left+right-4*t) + hotspotBeta*power[r*cols+c]
			}
		}
	}

	makeKernel := func(iter int) *task.Kernel {
		inB, outB := tempBuf[iter%2], tempBuf[(iter+1)%2]
		k := &task.Kernel{
			Name:      "hotspot_kernel",
			Size:      rows,
			Precision: device.SP,
			Eff:       hotspotEff,
			Flops: func(lo, hi int64) float64 {
				return hotspotFlopsPerCell * float64(cols) * float64(hi-lo)
			},
			MemBytes: func(lo, hi int64) float64 {
				// 5 temperature reads + power read + write, 4 B each.
				return 28 * float64(cols) * float64(hi-lo)
			},
			Accesses: func(lo, hi int64) []task.Access {
				rlo, rhi := lo-1, hi+1
				if rlo < 0 {
					rlo = 0
				}
				if rhi > rows {
					rhi = rows
				}
				return []task.Access{
					rw(inB, rlo*cols, rhi*cols, task.Read), // halo rows
					rw(powerBuf, lo*cols, hi*cols, task.Read),
					rw(outB, lo*cols, hi*cols, task.Write),
				}
			},
		}
		if v.Compute {
			in, out := temp[iter%2], temp[(iter+1)%2]
			k.Compute = func(lo, hi int64) { step(in, out, lo, hi) }
		}
		return k
	}

	p := &Problem{
		AppName: h.Name(),
		N:       rows,
		Iters:   iters,
		Dir:     dir,
		Structure: classify.Structure{
			Flow:            classify.Loop{Body: classify.Call{Kernel: "hotspot_kernel"}, Trips: iters},
			InterKernelSync: true,
		},
	}
	for it := 0; it < iters; it++ {
		p.Phases = append(p.Phases, Phase{Kernel: makeKernel(it), SyncAfter: true})
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		ref := [2][]float32{append([]float32(nil), temp[0]...), make([]float32, rows*cols)}
		for it := 0; it < iters; it++ {
			refStep(ref[it%2], ref[(it+1)%2], power, rows, cols)
		}
		want := ref[iters%2]
		p.Verify = func() error { return checkClose("temp", temp[iters%2], want, 1e-4) }
	}
	return p, nil
}

// refStep is the sequential reference update (identical arithmetic to
// the kernel's step, kept separate so the closure wiring of the live
// buffers cannot mask an aliasing bug).
func refStep(in, out, power []float32, rows, cols int64) {
	at := func(r, c int64) float32 {
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		return in[r*cols+c]
	}
	for r := int64(0); r < rows; r++ {
		for c := int64(0); c < cols; c++ {
			t := in[r*cols+c]
			left, right := t, t
			if c > 0 {
				left = in[r*cols+c-1]
			}
			if c < cols-1 {
				right = in[r*cols+c+1]
			}
			up, down := at(r-1, c), at(r+1, c)
			out[r*cols+c] = t + hotspotAlpha*(up+down+left+right-4*t) + hotspotBeta*power[r*cols+c]
		}
	}
}
