package apps

import (
	"math"

	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// Nbody is the paper's first SK-Loop application: a body-interaction
// simulation iterated over time steps (Mont-Blanc benchmark suite,
// OmpSs implementation). Each iteration computes forces and
// integrates; a global synchronization point after each iteration
// combines the partial outputs at the host before the next step
// (Section IV-B2).
//
// Substitution note: the Mont-Blanc kernel at the paper's 1,048,576
// bodies cannot be all-pairs within the reported runtimes, so we model
// the force computation with a fixed interaction window (a cell-list /
// neighbor-window scheme) of nbodyWindow bodies. The code path — a
// compute-heavy kernel that reads *all* positions (forcing the
// per-iteration exchange) and writes its own chunk — is preserved.
type Nbody struct{}

// NewNbody returns the application.
func NewNbody() Nbody { return Nbody{} }

// Name implements App.
func (Nbody) Name() string { return "Nbody" }

// DefaultN implements App: 1,048,576 bodies (64 MB of state).
func (Nbody) DefaultN() int64 { return 1 << 20 }

// DefaultIters implements App.
func (Nbody) DefaultIters() int { return 4 }

const (
	// nbodyWindow is the interaction neighborhood per body.
	nbodyWindow = 925
	// nbodyFlopsPerPair is the classic interaction cost.
	nbodyFlopsPerPair = 20
	nbodyDT           = 0.001
	nbodySoftening    = 1e-4
)

// Build implements App.
func (nb Nbody) Build(v Variant) (*Problem, error) {
	v, err := v.withDefaults(nb.DefaultN(), nb.DefaultIters())
	if err != nil {
		return nil, err
	}
	n := v.N
	iters := v.Iters
	window := int64(nbodyWindow)
	if window > n {
		window = n
	}

	dir := mem.NewDirectory(v.Spaces)
	// Positions are double-buffered across iterations; 16 B per body
	// (x, y, z, mass), 12 B of velocity.
	posBuf := [2]*mem.Buffer{dir.Register("pos0", n, 16), dir.Register("pos1", n, 16)}
	velBuf := dir.Register("vel", n, 12)
	if err := dir.Err(); err != nil {
		return nil, err
	}

	// Real state (compute mode) — allocated before the per-iteration
	// kernels close over it.
	var pos [2][]float32
	var vel []float32
	if v.Compute {
		pos[0] = make([]float32, 4*n)
		pos[1] = make([]float32, 4*n)
		vel = make([]float32, 3*n)
		for i := int64(0); i < n; i++ {
			pos[0][i*4] = float32((i*13)%97) / 97
			pos[0][i*4+1] = float32((i*31)%89) / 89
			pos[0][i*4+2] = float32((i*7)%83) / 83
			pos[0][i*4+3] = 1 + float32(i%5)/5
		}
	}

	step := func(in, out []float32, vel []float32, lo, hi int64) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := in[i*4], in[i*4+1], in[i*4+2]
			var ax, ay, az float32
			half := window / 2
			for w := int64(0); w < window; w++ {
				j := i - half + w
				if j < 0 {
					j += n
				} else if j >= n {
					j -= n
				}
				if j == i {
					continue
				}
				dx := in[j*4] - xi
				dy := in[j*4+1] - yi
				dz := in[j*4+2] - zi
				distSq := dx*dx + dy*dy + dz*dz + nbodySoftening
				inv := 1 / float32(math.Sqrt(float64(distSq)))
				inv3 := inv * inv * inv * in[j*4+3] // * mass_j
				ax += dx * inv3
				ay += dy * inv3
				az += dz * inv3
			}
			vel[i*3] += ax * nbodyDT
			vel[i*3+1] += ay * nbodyDT
			vel[i*3+2] += az * nbodyDT
			out[i*4] = xi + vel[i*3]*nbodyDT
			out[i*4+1] = yi + vel[i*3+1]*nbodyDT
			out[i*4+2] = zi + vel[i*3+2]*nbodyDT
			out[i*4+3] = in[i*4+3]
		}
	}

	makeKernel := func(iter int) *task.Kernel {
		inB, outB := posBuf[iter%2], posBuf[(iter+1)%2]
		k := &task.Kernel{
			Name:      "nbody_force",
			Size:      n,
			Precision: device.SP,
			Eff:       nbodyEff,
			Flops: func(lo, hi int64) float64 {
				return nbodyFlopsPerPair * float64(window) * float64(hi-lo)
			},
			MemBytes: func(lo, hi int64) float64 {
				// Window reads of positions plus own state update.
				return float64(hi-lo) * (16*8 + 16 + 12)
			},
			Accesses: func(lo, hi int64) []task.Access {
				return []task.Access{
					rw(inB, 0, n, task.Read), // all positions
					rw(velBuf, lo, hi, task.ReadWrite),
					rw(outB, lo, hi, task.Write),
				}
			},
		}
		if v.Compute {
			in, out := pos[iter%2], pos[(iter+1)%2]
			k.Compute = func(lo, hi int64) { step(in, out, vel, lo, hi) }
		}
		return k
	}

	p := &Problem{
		AppName: nb.Name(),
		N:       n,
		Iters:   iters,
		Dir:     dir,
		Structure: classify.Structure{
			Flow:            classify.Loop{Body: classify.Call{Kernel: "nbody_force"}, Trips: iters},
			InterKernelSync: true,
		},
	}
	for it := 0; it < iters; it++ {
		p.Phases = append(p.Phases, Phase{Kernel: makeKernel(it), SyncAfter: true})
	}
	p.Unique = collectUnique(p.Phases)

	if v.Compute {
		// Sequential reference on copies.
		refPos := [2][]float32{append([]float32(nil), pos[0]...), make([]float32, 4*n)}
		refVel := make([]float32, 3*n)
		for it := 0; it < iters; it++ {
			step(refPos[it%2], refPos[(it+1)%2], refVel, 0, n)
		}
		wantPos := refPos[iters%2]
		p.Verify = func() error {
			if err := checkClose("pos", pos[iters%2], wantPos, 1e-4); err != nil {
				return err
			}
			return checkClose("vel", vel, refVel, 1e-4)
		}
	}
	return p, nil
}
