package glinda

import (
	"math"
	"testing"
	"testing/quick"

	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

func approx(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

// Synthetic platform with round numbers: CPU 100 GFLOPS whole, GPU 900
// GFLOPS, link 1 GB/s.
func testPlatform(m int) *device.Platform {
	cpu := device.Model{
		Name: "testcpu", Kind: device.CPU, Cores: m, HWThreads: m,
		PeakSPGFLOPS: 100, PeakDPGFLOPS: 100, MemBWGBps: 1000,
	}
	gpu := device.Model{
		Name: "testgpu", Kind: device.GPU, Cores: 1, WarpSize: 32,
		PeakSPGFLOPS: 900, PeakDPGFLOPS: 900, MemBWGBps: 1000,
	}
	link := device.Link{HtoDGBps: 1, DtoHGBps: 1, Duplex: true}
	p, _ := device.NewPlatform(cpu, m, device.Attachment{Model: gpu, Link: link})
	return p
}

var fullEff = map[device.Kind]device.Efficiency{
	device.CPU: {Compute: 1, Memory: 1},
	device.GPU: {Compute: 1, Memory: 1},
}

func computeKernel(buf *mem.Buffer, flopsPerElem float64) *task.Kernel {
	return &task.Kernel{
		Name: "compute", Size: buf.Elems, Precision: device.SP, Eff: fullEff,
		Flops: func(lo, hi int64) float64 { return flopsPerElem * float64(hi-lo) },
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{{Buf: buf, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.ReadWrite}}
		},
	}
}

func TestMetrics(t *testing.T) {
	e := Estimate{Rc: 100, Rg: 900, B: 1e9, InSlope: 8, OutSlope: 4, N: 1000}
	r, g := e.Metrics()
	if !approx(r, 9, 1e-12) {
		t.Fatalf("r = %v, want 9", r)
	}
	if !approx(g, 900*12/1e9, 1e-12) {
		t.Fatalf("g = %v (round-trip traffic)", g)
	}
	e.B = math.Inf(1)
	if _, g := e.Metrics(); g != 0 {
		t.Fatalf("no-transfer g = %v, want 0", g)
	}
}

func TestOptimalBetaComputeOnly(t *testing.T) {
	e := Estimate{Rc: 100, Rg: 900, B: math.Inf(1), N: 1000}
	if beta := e.OptimalBeta(); !approx(beta, 0.9, 1e-12) {
		t.Fatalf("beta = %v, want 0.9", beta)
	}
}

func TestOptimalBetaTransferShiftsToCPU(t *testing.T) {
	noXfer := Estimate{Rc: 100, Rg: 900, B: math.Inf(1), N: 1000}
	withXfer := Estimate{Rc: 100, Rg: 900, B: 1000, InSlope: 8, N: 1000}
	if withXfer.OptimalBeta() >= noXfer.OptimalBeta() {
		t.Fatalf("transfer cost did not shift work to CPU: %v >= %v",
			withXfer.OptimalBeta(), noXfer.OptimalBeta())
	}
}

func TestOptimalBetaConstTermShiftsToCPU(t *testing.T) {
	base := Estimate{Rc: 100, Rg: 900, B: 1000, InSlope: 8, N: 1000}
	withConst := base
	withConst.InConst = 50000
	if withConst.OptimalBeta() >= base.OptimalBeta() {
		t.Fatal("broadcast-input cost did not shift work to CPU")
	}
}

func TestOptimalBetaDegenerate(t *testing.T) {
	if b := (Estimate{Rc: 0, Rg: 100, N: 10}).OptimalBeta(); b != 1 {
		t.Fatalf("no-CPU beta = %v, want 1", b)
	}
	if b := (Estimate{Rc: 100, Rg: 0, N: 10}).OptimalBeta(); b != 0 {
		t.Fatalf("no-GPU beta = %v, want 0", b)
	}
	if b := (Estimate{N: 10}).OptimalBeta(); b != 0 {
		t.Fatalf("dead platform beta = %v, want 0", b)
	}
}

// Property: at β* the predicted CPU and GPU times balance (within
// float tolerance), for any positive rates and transfer params.
func TestQuickBetaBalances(t *testing.T) {
	f := func(rc8, rg8, b8, s8 uint16) bool {
		e := Estimate{
			Rc:      float64(rc8%999) + 1,
			Rg:      float64(rg8%9999) + 1,
			B:       float64(b8%9999)*1e6 + 1e6,
			InSlope: float64(s8 % 64),
			N:       1 << 20,
		}
		beta := e.OptimalBeta()
		if beta <= 0 || beta >= 1 {
			return true // clamped: balance not required
		}
		tc, tg := e.PredictTimes(beta, e.N)
		return approx(tc, tg, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictTimesEdges(t *testing.T) {
	e := Estimate{Rc: 100, Rg: 900, B: 1000, InSlope: 8, InConst: 100, OutSlope: 4, OutConst: 50, N: 1000}
	tc, tg := e.PredictTimes(0, 1000)
	if tg != 0 || !approx(tc, 10, 1e-12) {
		t.Fatalf("beta=0: tc=%v tg=%v", tc, tg)
	}
	tc, tg = e.PredictTimes(1, 1000)
	if tc != 0 || tg <= 0 {
		t.Fatalf("beta=1: tc=%v tg=%v", tc, tg)
	}
	// GPU pipeline = exec + input transfer + writeback.
	want := 1000.0/900 + (12.0*1000+150)/1000
	if !approx(tg, want, 1e-12) {
		t.Fatalf("tg = %v, want %v", tg, want)
	}
	if ms := e.PredictMakespan(1, 1000); !approx(ms, want, 1e-12) {
		t.Fatalf("makespan = %v, want %v", ms, want)
	}
	if ms := e.PredictMakespan(0, 1000); !approx(ms, 10, 1e-12) {
		t.Fatalf("beta=0 makespan = %v, want 10", ms)
	}
}

func TestDecideThresholdsAndRounding(t *testing.T) {
	plat := testPlatform(4)
	gpu := plat.Device(1)

	hybrid := Decide(Estimate{Rc: 100, Rg: 900, B: math.Inf(1), N: 1000}, 1000, gpu)
	if hybrid.Config != Hybrid {
		t.Fatalf("config = %v, want hybrid", hybrid.Config)
	}
	if hybrid.NG+hybrid.NC != 1000 {
		t.Fatalf("NG+NC = %d", hybrid.NG+hybrid.NC)
	}
	if hybrid.NG%32 != 0 && hybrid.NG != 1000 {
		t.Fatalf("NG = %d not warp-rounded", hybrid.NG)
	}
	// beta = 0.9 -> ng = 900 -> rounded to 928? 900 = 28*32+4 -> 928.
	if hybrid.NG != 928 {
		t.Fatalf("NG = %d, want 928 (900 rounded up to warp)", hybrid.NG)
	}

	onlyGPU := Decide(Estimate{Rc: 1, Rg: 1e6, B: math.Inf(1), N: 1000}, 1000, gpu)
	if onlyGPU.Config != OnlyGPU || onlyGPU.NG != 1000 || onlyGPU.NC != 0 {
		t.Fatalf("decision = %+v, want Only-GPU", onlyGPU)
	}

	onlyCPU := Decide(Estimate{Rc: 1e6, Rg: 1, B: math.Inf(1), N: 1000}, 1000, gpu)
	if onlyCPU.Config != OnlyCPU || onlyCPU.NC != 1000 || onlyCPU.NG != 0 {
		t.Fatalf("decision = %+v, want Only-CPU", onlyCPU)
	}
}

func TestHWConfigNames(t *testing.T) {
	if OnlyCPU.String() != "Only-CPU" || OnlyGPU.String() != "Only-GPU" || Hybrid.String() != "CPU+GPU" {
		t.Fatal("config names wrong")
	}
}

func TestProfileMeasuresRates(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1<<20, 8)
	k := computeKernel(buf, 1000) // 1000 flops/elem, compute-bound

	est, err := Profile(plat, dir, k, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Model rates: CPU whole = 100e9/1000 = 1e8 elems/s; GPU = 9e8.
	if !approx(est.Rc, 1e8, 0.05) {
		t.Fatalf("Rc = %.3g, want ~1e8", est.Rc)
	}
	if !approx(est.Rg, 9e8, 0.05) {
		t.Fatalf("Rg = %.3g, want ~9e8", est.Rg)
	}
	// Effective link bandwidth ~1 GB/s.
	if !approx(est.B, 1e9, 0.05) {
		t.Fatalf("B = %.3g, want ~1e9", est.B)
	}
	// Transfer model: a ReadWrite access of 8 B/elem moves 8 B in and
	// 8 B back out -> InSlope 8, OutSlope 8, no consts.
	if !approx(est.InSlope, 8, 1e-9) || est.InConst != 0 {
		t.Fatalf("in model = %v·s + %v, want 8·s", est.InSlope, est.InConst)
	}
	if !approx(est.OutSlope, 8, 1e-9) || est.OutConst != 0 {
		t.Fatalf("out model = %v·s + %v, want 8·s", est.OutSlope, est.OutConst)
	}
	// Profiling footprint: everything back on host.
	if !dir.HostWhole() {
		t.Fatal("profiling left device state behind")
	}
}

func TestProfileErrors(t *testing.T) {
	plat := testPlatform(2)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 100, 8)
	k := computeKernel(buf, 10)
	if _, err := Profile(plat, dir, k, 5, Config{}); err == nil {
		t.Fatal("bad accel ID accepted")
	}
	empty := &task.Kernel{Name: "empty", Size: 0}
	if _, err := Profile(plat, dir, empty, 1, Config{}); err == nil {
		t.Fatal("empty kernel accepted")
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1<<20, 8)
	k := computeKernel(buf, 1000)
	est, err := Profile(plat, dir, k, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec := Decide(est, k.Size, plat.Device(1))
	if dec.Config != Hybrid {
		t.Fatalf("config = %v", dec.Config)
	}
	// Analytic: r = 9, g = Rg·16/1e9 = 14.4 over the round trip ->
	// beta = 9/(1+14.4+9).
	if !approx(dec.Beta, 9.0/24.4, 0.05) {
		t.Fatalf("beta = %v, want ~%v", dec.Beta, 9.0/24.4)
	}
}

func TestFuseHarmonicRates(t *testing.T) {
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k1 := computeKernel(buf, 10)
	k2 := computeKernel(buf, 10)
	e := Estimate{Rc: 100, Rg: 900, B: 1e9, N: 1000}
	fused, err := Fuse([]*task.Kernel{k1, k2}, []Estimate{e, e})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fused.Rc, 50, 1e-12) || !approx(fused.Rg, 450, 1e-12) {
		t.Fatalf("fused rates = %v/%v, want 50/450", fused.Rc, fused.Rg)
	}
	// Both kernels touch the same buffer: one cold read in (8 B/elem)
	// plus one write-back out (8 B/elem).
	if !approx(fused.InSlope, 8, 1e-9) || !approx(fused.OutSlope, 8, 1e-9) {
		t.Fatalf("fused slopes = %v/%v, want 8/8", fused.InSlope, fused.OutSlope)
	}
}

func TestFuseErrors(t *testing.T) {
	dir := mem.NewDirectory(2)
	buf := dir.Register("a", 1000, 8)
	k := computeKernel(buf, 10)
	if _, err := Fuse(nil, nil); err == nil {
		t.Fatal("empty fuse accepted")
	}
	if _, err := Fuse([]*task.Kernel{k}, []Estimate{{Rc: 0, Rg: 1}}); err == nil {
		t.Fatal("zero rate accepted")
	}
	short := computeKernel(buf, 10)
	short.Size = 500
	es := Estimate{Rc: 1, Rg: 1, B: math.Inf(1)}
	if _, err := Fuse([]*task.Kernel{k, short}, []Estimate{es, es}); err == nil {
		t.Fatal("mismatched sizes accepted")
	}
}

func TestColdReadBytesSTREAMLike(t *testing.T) {
	dir := mem.NewDirectory(2)
	a := dir.Register("a", 100, 8)
	b := dir.Register("b", 100, 8)
	c := dir.Register("c", 100, 8)
	access := func(reads, writes []*mem.Buffer) func(lo, hi int64) []task.Access {
		return func(lo, hi int64) []task.Access {
			var out []task.Access
			for _, r := range reads {
				out = append(out, task.Access{Buf: r, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Read})
			}
			for _, w := range writes {
				out = append(out, task.Access{Buf: w, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write})
			}
			return out
		}
	}
	// STREAM: copy c=a; scale b=k*c; add c=a+b; triad a=b+k*c.
	kernels := []*task.Kernel{
		{Name: "copy", Size: 100, Accesses: access([]*mem.Buffer{a}, []*mem.Buffer{c})},
		{Name: "scale", Size: 100, Accesses: access([]*mem.Buffer{c}, []*mem.Buffer{b})},
		{Name: "add", Size: 100, Accesses: access([]*mem.Buffer{a, b}, []*mem.Buffer{c})},
		{Name: "triad", Size: 100, Accesses: access([]*mem.Buffer{b, c}, []*mem.Buffer{a})},
	}
	// Cold reads for s=100: only a (copy); c, b are produced on device.
	if got := ColdReadBytes(kernels, 100); got != 100*8 {
		t.Fatalf("cold reads = %d, want 800 (only array a)", got)
	}
	// Write-back: a, b, c all written -> 3 arrays.
	if got := WriteBackBytes(kernels, 100); got != 3*100*8 {
		t.Fatalf("write-back = %d, want 2400", got)
	}
}

func TestSolveMultiEqualAccels(t *testing.T) {
	acc := Estimate{Rg: 300, B: math.Inf(1)}
	shares, err := SolveMulti(400, []Estimate{acc, acc}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 3 {
		t.Fatalf("shares = %v", shares)
	}
	var sum int64
	for _, s := range shares {
		sum += s
	}
	if sum != 1000 {
		t.Fatalf("shares %v sum to %d", shares, sum)
	}
	// Rates 400:300:300 -> 400, 300, 300.
	if shares[0] != 400 || shares[1] != 300 || shares[2] != 300 {
		t.Fatalf("shares = %v, want [400 300 300]", shares)
	}
}

func TestSolveMultiTransferPenalty(t *testing.T) {
	fast := Estimate{Rg: 1000, B: math.Inf(1)}
	slowLink := Estimate{Rg: 1000, B: 1000, InSlope: 4, OutSlope: 4} // effective ~111/s
	shares, err := SolveMulti(100, []Estimate{fast, slowLink}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if shares[1] <= shares[2] {
		t.Fatalf("shares = %v, want transfer-free accel to get more", shares)
	}
}

func TestSolveMultiErrors(t *testing.T) {
	if _, err := SolveMulti(0, nil, 10); err == nil {
		t.Fatal("dead platform accepted")
	}
	if _, err := SolveMulti(100, []Estimate{{Rg: 0}}, 10); err == nil {
		t.Fatal("dead accel accepted")
	}
	if _, err := SolveMulti(100, nil, -5); err == nil {
		t.Fatal("negative n accepted")
	}
	shares, err := SolveMulti(100, nil, 1000)
	if err != nil || shares[0] != 1000 {
		t.Fatalf("cpu-only = %v, %v", shares, err)
	}
}

func TestSolveImbalancedUniformMatchesBalanced(t *testing.T) {
	n := int64(1000)
	uniform := func(lo, hi int64) float64 { return float64(hi - lo) }
	// No transfers, GPU 9x CPU: expect split at ~900.
	s, err := SolveImbalanced(n, uniform, nil, 900, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s < 895 || s > 905 {
		t.Fatalf("split = %d, want ~900", s)
	}
}

func TestSolveImbalancedTriangular(t *testing.T) {
	// Weight(i) = i: heavy elements at the high end (CPU side).
	n := int64(1000)
	prefix := make([]float64, n+1)
	for i := int64(1); i <= n; i++ {
		prefix[i] = prefix[i-1] + float64(i)
	}
	weight := func(lo, hi int64) float64 { return prefix[hi] - prefix[lo] }
	s, err := SolveImbalanced(n, weight, nil, 900, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force optimum for comparison.
	best, bestCost := int64(0), math.Inf(1)
	for cand := int64(0); cand <= n; cand++ {
		tg := prefix[cand] / 900
		tc := (prefix[n] - prefix[cand]) / 100
		if c := math.Max(tg, tc); c < bestCost {
			best, bestCost = cand, c
		}
	}
	if s != best {
		t.Fatalf("split = %d, brute force = %d", s, best)
	}
	// GPU takes 90% of the *weight*, so more than 90% of the elements
	// when the heavy ones sit on the CPU side.
	if s <= 900 {
		t.Fatalf("split = %d, want > 900 for ascending weights", s)
	}
}

func TestSolveImbalancedErrors(t *testing.T) {
	unit := func(lo, hi int64) float64 { return float64(hi - lo) }
	if _, err := SolveImbalanced(-1, unit, nil, 1, 1, 0); err == nil {
		t.Fatal("negative size accepted")
	}
	if s, _ := SolveImbalanced(1, unit, nil, 0, 1, 0); s != 0 {
		t.Fatal("dead GPU should give CPU everything")
	}
	if s, _ := SolveImbalanced(1, unit, nil, 1, 0, 0); s != 1 {
		t.Fatal("dead CPU should give GPU everything")
	}
	if _, err := SolveImbalanced(1, unit, nil, 0, 0, 0); err == nil {
		t.Fatal("dead platform accepted")
	}
	// Without a transfer term the bytes function is never called.
	if s, err := SolveImbalanced(0, unit, nil, 1, 1, 0); err != nil || s != 0 {
		t.Fatalf("empty space = %d, %v", s, err)
	}
}

func TestDecideMemoryCapacityCap(t *testing.T) {
	plat := testPlatform(4)
	gpu := plat.Device(1)
	gpu.MemCapacityGB = 0.001 // 1 MB of device memory
	// 1M elements at 16 B/elem footprint: only ~62500 fit.
	e := Estimate{Rc: 100, Rg: 900, B: 1e9, InSlope: 8, OutSlope: 8, N: 1 << 20}
	d := Decide(e, 1<<20, gpu)
	if d.Config != Hybrid {
		t.Fatalf("config = %v", d.Config)
	}
	if got := float64(d.NG) * 16; got > 1.01e6 {
		t.Fatalf("GPU partition footprint %.0f B exceeds 1 MB capacity", got)
	}
	if d.NG+d.NC != 1<<20 {
		t.Fatalf("partition broken: %d + %d", d.NG, d.NC)
	}
}

func TestDecideCapacityForcesOnlyCPU(t *testing.T) {
	plat := testPlatform(4)
	gpu := plat.Device(1)
	gpu.MemCapacityGB = 1e-9 // effectively no device memory
	e := Estimate{Rc: 1, Rg: 1e6, B: math.Inf(1), InSlope: 8, OutSlope: 8, N: 1000}
	d := Decide(e, 1000, gpu)
	if d.Config != OnlyCPU || d.NG != 0 {
		t.Fatalf("decision = %+v, want Only-CPU when nothing fits", d)
	}
}

func TestDecideCapacityBlocksOnlyGPU(t *testing.T) {
	plat := testPlatform(4)
	gpu := plat.Device(1)
	gpu.MemCapacityGB = 4e-6 // 4 KB: half of the 8 KB footprint fits
	// beta would be ~1 (Only-GPU), but the capacity cap forces hybrid.
	e := Estimate{Rc: 1, Rg: 1e6, B: math.Inf(1), InSlope: 4, OutSlope: 4, N: 1000}
	d := Decide(e, 1000, gpu)
	if d.Config != Hybrid {
		t.Fatalf("decision = %v, want hybrid under the capacity cap", d.Config)
	}
	if d.NG >= 1000 || d.NC == 0 {
		t.Fatalf("partition = %d/%d, want capped GPU share", d.NG, d.NC)
	}
}
