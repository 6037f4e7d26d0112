package main

import (
	"fmt"
	"sort"
	"time"

	"heteropart"
)

// op is one distinct unit of library work a workload times: a fresh
// problem build, then the analyzer's Matchmake pipeline or a forced
// strategy run, then (in compute mode) Problem.Verify.
type op struct {
	key    string // names the op in the golden record
	app    heteropart.App
	n      int64 // 0 = the app's paper size
	sync   heteropart.SyncMode
	plat   string
	strat  heteropart.Strategy // nil = Matchmake
	chunks int                 // the paper's m; 0 = platform thread count
	// compute runs the real Go kernels and verifies them against the
	// sequential reference.
	compute bool
	// weight is the op's multiplicity in one pass of the workload's
	// multiset; it keeps any one op type from dominating host time.
	weight int
}

// outcome is the simulated statistics of one op: everything the
// golden record pins. All of it is virtual (simulated) state, so it
// must repeat exactly on every run and every host.
type outcome struct {
	MakespanNs int64 `json:"makespan_ns"`
	Instances  int   `json:"instances"`
	Decisions  int   `json:"decisions"`
	Transfers  int   `json:"transfers"`
	HtoDBytes  int64 `json:"htod_bytes"`
	DtoHBytes  int64 `json:"dtoh_bytes"`
	P2PBytes   int64 `json:"p2p_bytes"`
}

func outcomeOf(r *heteropart.ExecutionResult) outcome {
	return outcome{
		MakespanNs: int64(r.Makespan),
		Instances:  r.Instances,
		Decisions:  r.Decisions,
		Transfers:  r.TransferCount,
		HtoDBytes:  r.HtoDBytes,
		DtoHBytes:  r.DtoHBytes,
		P2PBytes:   r.P2PBytes,
	}
}

var syncNames = map[heteropart.SyncMode]string{
	heteropart.SyncDefault: "default",
	heteropart.SyncForced:  "forced",
	heteropart.SyncNone:    "none",
}

func newOp(app, plat, strat string, n int64, sync heteropart.SyncMode, chunks int, compute bool, weight int) (*op, error) {
	a, err := heteropart.AppByName(app)
	if err != nil {
		return nil, err
	}
	o := &op{app: a, n: n, sync: sync, plat: plat, chunks: chunks, compute: compute, weight: weight}
	name := "matchmake"
	if strat != "" {
		if o.strat, err = heteropart.StrategyByName(strat); err != nil {
			return nil, err
		}
		name = strat
	}
	mode := "timing"
	if compute {
		mode = "compute"
	}
	o.key = fmt.Sprintf("%s|%s|n=%d|sync=%s|m=%d|%s|%s", app, plat, n, syncNames[sync], chunks, name, mode)
	return o, nil
}

// build instantiates the op's problem for a platform.
func (o *op) build(plat *heteropart.Platform, compute bool) (*heteropart.Problem, error) {
	return o.app.Build(heteropart.Variant{
		N: o.n, Sync: o.sync, Spaces: 1 + len(plat.Accels), Compute: compute,
	})
}

func (o *op) options() heteropart.Options {
	return heteropart.Options{Chunks: o.chunks, Compute: o.compute}
}

// run executes the op once, untraced.
func (o *op) run(plat *heteropart.Platform) (outcome, error) {
	p, err := o.build(plat, o.compute)
	if err != nil {
		return outcome{}, err
	}
	var out *heteropart.Outcome
	if o.strat == nil {
		_, out, err = heteropart.Matchmake(p, plat, o.options())
	} else {
		out, err = o.strat.Run(p, plat, o.options())
	}
	if err != nil {
		return outcome{}, err
	}
	if o.compute {
		if err := p.Verify(); err != nil {
			return outcome{}, fmt.Errorf("verify: %w", err)
		}
	}
	return outcomeOf(out.Result), nil
}

// platforms instantiates every catalog platform the workloads use.
func platforms() (map[string]*heteropart.Platform, error) {
	out := make(map[string]*heteropart.Platform)
	for _, name := range heteropart.PlatformNames() {
		p, err := heteropart.PlatformByName(name, 0)
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	return out, nil
}

// dynamicOps is the dynamic-sched multiset: DP-Perf and DP-Dep over
// apps whose plans range from 24 to 1920 instances, including a
// no-barrier STREAM-Loop whose dependence window spans the whole loop.
// Only STREAM reads the sync variant (its default is the no-barrier
// form); no-barrier STREAM-Loop runs at m = 12 only, since at m = 48 it
// alone would take over half the workload's host time.
func dynamicOps() ([]*op, error) {
	both := []heteropart.SyncMode{heteropart.SyncForced, heteropart.SyncNone}
	def := []heteropart.SyncMode{heteropart.SyncDefault}
	// Weights balance the apps' host time: one pass spends roughly
	// 27/16/15/14/14/14% of it on STREAM-Loop, Cholesky, Nbody,
	// STREAM-Seq, HotSpot and Convolution, and STREAM-Loop's 3% of the
	// ops hold the p99.
	cases := []struct {
		name   string
		syncs  []heteropart.SyncMode
		weight int
	}{
		{"STREAM-Loop", both, 2},
		{"Cholesky", def, 2},
		{"STREAM-Seq", both, 8},
		{"HotSpot", def, 18},
		{"Nbody", def, 20},
		{"Convolution", def, 45},
	}
	var ops []*op
	for _, c := range cases {
		for _, sync := range c.syncs {
			for _, m := range []int{12, 48} {
				if c.name == "STREAM-Loop" && sync == heteropart.SyncNone && m == 48 {
					continue
				}
				for _, plat := range []string{"paper", "tri-asym-p2p"} {
					for _, s := range []string{"DP-Perf", "DP-Dep"} {
						o, err := newOp(c.name, plat, s, 0, sync, m, false, c.weight)
						if err != nil {
							return nil, err
						}
						ops = append(ops, o)
					}
				}
			}
		}
	}
	return ops, nil
}

// staticOps is the matchmake-static multiset: the analyzer's pipeline
// plus every applicable forced static strategy, on every catalog
// platform at three sizes.
func staticOps() ([]*op, error) {
	apps := []string{"MatrixMul", "BlackScholes", "Nbody", "HotSpot", "STREAM-Seq", "Convolution", "Triangular"}
	var ops []*op
	for _, name := range apps {
		a, err := heteropart.AppByName(name)
		if err != nil {
			return nil, err
		}
		p, err := a.Build(heteropart.Variant{})
		if err != nil {
			return nil, err
		}
		rep, err := heteropart.Analyze(p)
		if err != nil {
			return nil, err
		}
		strats := []string{""}
		for _, s := range []string{"SP-Single", "SP-Unified", "SP-Varied"} {
			st, err := heteropart.StrategyByName(s)
			if err != nil {
				return nil, err
			}
			if st.Applicable(rep.Class, rep.NeedsSync) {
				strats = append(strats, s)
			}
		}
		for _, plat := range heteropart.PlatformNames() {
			for _, div := range []int64{1, 4, 16} {
				for _, s := range strats {
					o, err := newOp(name, plat, s, a.DefaultN()/div, heteropart.SyncDefault, 0, false, 1)
					if err != nil {
						return nil, err
					}
					ops = append(ops, o)
				}
			}
		}
	}
	return ops, nil
}

// computeOps is the compute-verify multiset: real kernels plus the
// sequential-reference check, at ~2-4 ms per op. STREAM-Loop's 520
// instances make it the one slow op (~10 ms, mostly simulation); at 5%
// of the ops it holds the p99. Compute mode caps Cholesky at n = 512,
// and n = 1024 hits a known analyzer defect (see README.md).
func computeOps() ([]*op, error) {
	sizes := []struct {
		app    string
		n      int64
		weight int
	}{
		{"MatrixMul", 128, 3},
		{"BlackScholes", 1 << 13, 3},
		{"Nbody", 256, 3},
		{"HotSpot", 192, 3},
		{"STREAM-Seq", 1 << 16, 3},
		{"STREAM-Loop", 1 << 11, 1},
		{"Cholesky", 128, 3},
	}
	var ops []*op
	for _, s := range sizes {
		for _, plat := range []string{"paper", "tri-asym-p2p"} {
			o, err := newOp(s.app, plat, "", s.n, heteropart.SyncDefault, 0, true, s.weight)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
	}
	return ops, nil
}

// libOps names the op multiset of each library workload.
var libOps = map[string]func() ([]*op, error){
	"dynamic-sched":    dynamicOps,
	"matchmake-static": staticOps,
	"compute-verify":   computeOps,
}

// printCosts prints the mean host cost of each distinct op of a library
// workload and its weighted share of one pass, largest first: the
// figures the op weights are set from.
func printCosts(workload string) error {
	build, ok := libOps[workload]
	if !ok {
		return fmt.Errorf("no library workload %q", workload)
	}
	ops, err := build()
	if err != nil {
		return err
	}
	plats, err := platforms()
	if err != nil {
		return err
	}
	const reps = 3
	ms := make(map[*op]float64)
	var pass float64
	for _, o := range ops {
		if _, err := o.run(plats[o.plat]); err != nil { // warm-up
			return fmt.Errorf("%s: %w", o.key, err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := o.run(plats[o.plat]); err != nil {
				return fmt.Errorf("%s: %w", o.key, err)
			}
		}
		ms[o] = float64(time.Since(start).Nanoseconds()) / 1e6 / reps
		pass += ms[o] * float64(o.weight)
	}
	sort.Slice(ops, func(i, j int) bool { return ms[ops[i]]*float64(ops[i].weight) > ms[ops[j]]*float64(ops[j].weight) })
	for _, o := range ops {
		fmt.Printf("%9.3f ms x%-3d %5.1f%%  %s\n", ms[o], o.weight, 100*ms[o]*float64(o.weight)/pass, o.key)
	}
	fmt.Printf("one pass: %d distinct ops, %.1f ms\n", len(ops), pass)
	return nil
}
