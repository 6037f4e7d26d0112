package apps

import (
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// Convolution is a separable 2D convolution (the NVIDIA SDK's
// ConvolutionSeparable): a horizontal pass followed by a vertical
// pass over a row-partitioned image. Unlike STREAM, whose "with sync"
// variant is synthetic, this application *naturally* requires
// inter-kernel synchronization: the vertical pass reads a halo of
// kernelRadius rows around its chunk, which crosses the horizontal
// pass's partition boundaries — the second SP-Varied condition of
// Section III-C ("applications need synchronization to assemble the
// output data of one kernel produced on different processors for the
// correct input of the next kernel").
type Convolution struct{}

// NewConvolution returns the application.
func NewConvolution() Convolution { return Convolution{} }

// Name implements App.
func (Convolution) Name() string { return "Convolution" }

// DefaultN implements App: a 8192×8192 float32 image (rows iteration
// space).
func (Convolution) DefaultN() int64 { return 8192 }

// DefaultIters implements App.
func (Convolution) DefaultIters() int { return 1 }

const convRadius = 4

// convWeights is the normalized 1D filter both passes share.
var convWeights = func() [2*convRadius + 1]float32 {
	var w [2*convRadius + 1]float32
	var sum float32
	for i := range w {
		d := i - convRadius
		w[i] = float32(convRadius + 1 - abs(d))
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}()

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Build implements App.
func (cv Convolution) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(cv.DefaultN(), 1)
	if err != nil {
		return nil, err
	}
	rows := v.N
	cols := rows
	cells, err := elems(cv.Name(), rows, cols)
	if err != nil {
		return nil, err
	}

	dir := mem.NewDirectory(v.Spaces)
	src := dir.Register("src", cells, 4)
	tmp := dir.Register("tmp", cells, 4)
	dst := dir.Register("dst", cells, 4)
	if err := dir.Err(); err != nil {
		return nil, err
	}

	var in, mid, out []float32
	if v.Compute {
		in = make([]float32, rows*cols)
		mid = make([]float32, rows*cols)
		out = make([]float32, rows*cols)
		for i := range in {
			in[i] = float32((i*31)%251) / 251
		}
	}

	clampCol := func(c int64) int64 {
		if c < 0 {
			return 0
		}
		if c >= cols {
			return cols - 1
		}
		return c
	}
	clampRow := func(r int64) int64 {
		if r < 0 {
			return 0
		}
		if r >= rows {
			return rows - 1
		}
		return r
	}

	horizontal := &task.Kernel{
		Name:      "conv_rows",
		Size:      rows,
		Precision: device.SP,
		Eff:       hotspotEff, // bandwidth-leaning stencil profile
		Flops: func(lo, hi int64) float64 {
			return float64(2*(2*convRadius+1)) * float64(cols) * float64(hi-lo)
		},
		MemBytes: func(lo, hi int64) float64 { return 8 * float64(cols) * float64(hi-lo) },
		Accesses: func(lo, hi int64) []task.Access {
			// Row-local: reads and writes exactly its rows.
			return []task.Access{
				rw(src, lo*cols, hi*cols, task.Read),
				rw(tmp, lo*cols, hi*cols, task.Write),
			}
		},
	}
	vertical := &task.Kernel{
		Name:      "conv_cols",
		Size:      rows,
		Precision: device.SP,
		Eff:       hotspotEff,
		Flops: func(lo, hi int64) float64 {
			return float64(2*(2*convRadius+1)) * float64(cols) * float64(hi-lo)
		},
		MemBytes: func(lo, hi int64) float64 {
			return float64(4*(2*convRadius+2)) * float64(cols) * float64(hi-lo)
		},
		Accesses: func(lo, hi int64) []task.Access {
			// Reads a convRadius-row halo of tmp: the cross-partition
			// dependence that forces the inter-kernel sync.
			rlo, rhi := clampRow(lo-convRadius), clampRow(hi+convRadius-1)+1
			return []task.Access{
				rw(tmp, rlo*cols, rhi*cols, task.Read),
				rw(dst, lo*cols, hi*cols, task.Write),
			}
		},
	}

	if v.Compute {
		horizontal.Compute = func(lo, hi int64) {
			for r := lo; r < hi; r++ {
				for c := int64(0); c < cols; c++ {
					var acc float32
					for k := -convRadius; k <= convRadius; k++ {
						acc += convWeights[k+convRadius] * in[r*cols+clampCol(c+int64(k))]
					}
					mid[r*cols+c] = acc
				}
			}
		}
		vertical.Compute = func(lo, hi int64) {
			for r := lo; r < hi; r++ {
				for c := int64(0); c < cols; c++ {
					var acc float32
					for k := -convRadius; k <= convRadius; k++ {
						acc += convWeights[k+convRadius] * mid[clampRow(r+int64(k))*cols+c]
					}
					out[r*cols+c] = acc
				}
			}
		}
	}

	p := &Problem{
		AppName: cv.Name(),
		N:       rows,
		Iters:   1,
		Dir:     dir,
		Phases: []Phase{
			{Kernel: horizontal, SyncAfter: true}, // the natural sync point
			{Kernel: vertical, SyncAfter: true},
		},
		Structure: classify.Structure{
			Flow: classify.Seq{
				classify.Call{Kernel: "conv_rows"},
				classify.Call{Kernel: "conv_cols"},
			},
			InterKernelSync: true,
		},
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		// Sequential reference.
		refMid := make([]float32, rows*cols)
		refOut := make([]float32, rows*cols)
		for r := int64(0); r < rows; r++ {
			for c := int64(0); c < cols; c++ {
				var acc float32
				for k := -convRadius; k <= convRadius; k++ {
					acc += convWeights[k+convRadius] * in[r*cols+clampCol(c+int64(k))]
				}
				refMid[r*cols+c] = acc
			}
		}
		for r := int64(0); r < rows; r++ {
			for c := int64(0); c < cols; c++ {
				var acc float32
				for k := -convRadius; k <= convRadius; k++ {
					acc += convWeights[k+convRadius] * refMid[clampRow(r+int64(k))*cols+c]
				}
				refOut[r*cols+c] = acc
			}
		}
		p.Verify = func() error { return checkClose("dst", out, refOut, 1e-5) }
	}
	return p, nil
}
