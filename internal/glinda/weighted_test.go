package glinda

import (
	"math"
	"slices"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// triKernel builds a triangular-weight kernel over a packed buffer.
func triKernel(dir *mem.Directory, n int64) *task.Kernel {
	packed := n * (n + 1) / 2
	data := dir.Register("tri", packed, 4)
	out := dir.Register("out", n, 4)
	off := func(r int64) int64 { return r * (r + 1) / 2 }
	return &task.Kernel{
		Name: "tri", Size: n, Precision: device.SP, Eff: fullEff,
		Flops:    func(lo, hi int64) float64 { return 8 * float64(off(hi)-off(lo)) },
		MemBytes: func(lo, hi int64) float64 { return 4 * float64(off(hi)-off(lo)) },
		Accesses: func(lo, hi int64) []task.Access {
			return []task.Access{
				{Buf: data, Interval: mem.Interval{Lo: off(lo), Hi: off(hi)}, Mode: task.Read},
				{Buf: out, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write},
			}
		},
	}
}

func TestImbalanceRatio(t *testing.T) {
	dir := mem.NewDirectory(2)
	tri := triKernel(dir, 1000)
	if r := ImbalanceRatio(tri, 50); r < 10 {
		t.Fatalf("triangular imbalance ratio = %v, want large", r)
	}
	uniform := computeKernel(dir.Register("u", 1000, 4), 10)
	if r := ImbalanceRatio(uniform, 50); r != 1 {
		t.Fatalf("uniform imbalance ratio = %v, want 1", r)
	}
	if r := ImbalanceRatio(tri, 0); r != 1 {
		t.Fatalf("zero sample ratio = %v, want 1", r)
	}
	if r := ImbalanceRatio(tri, 600); r != 1 {
		t.Fatalf("oversized sample ratio = %v, want 1 (cannot compare ends)", r)
	}
}

// bytesPrefixOracle is the per-element byte prefix the weighted
// pipeline once built: one access call per element, reads in plus
// writes out, summed.
func bytesPrefixOracle(k *task.Kernel) []float64 {
	n := k.Size
	p := make([]float64, n+1)
	for i := int64(0); i < n; i++ {
		var b float64
		for _, a := range k.AccessesOf(i, i+1) {
			if a.Mode.Reads() {
				b += float64(a.Buf.Bytes(a.Interval))
			}
			if a.Mode.Writes() {
				b += float64(a.Buf.Bytes(a.Interval))
			}
		}
		p[i+1] = p[i] + b
	}
	return p
}

// weightPrefixOracle is the per-element weight prefix the weighted
// pipeline once built (WeightPrefix): one Flops call per element, P[i]
// the weight of [0, i).
func weightPrefixOracle(k *task.Kernel) []float64 {
	n := k.Size
	p := make([]float64, n+1)
	for i := int64(0); i < n; i++ {
		p[i+1] = p[i] + k.Flops(i, i+1)
	}
	return p
}

// cutWeightedOracle is the prefix scan CutWeighted once ran.
func cutWeightedOracle(prefix []float64, lo, hi int64, m int) []mem.Interval {
	if hi <= lo || m < 1 {
		return nil
	}
	total := prefix[hi] - prefix[lo]
	if total <= 0 {
		return mem.Interval{Lo: lo, Hi: hi}.AppendSplit(nil, m)
	}
	var out []mem.Interval
	at := lo
	for i := 1; i <= m && at < hi; i++ {
		target := prefix[lo] + total*float64(i)/float64(m)
		end := at + 1
		for end < hi && prefix[end] < target {
			end++
		}
		if i == m {
			end = hi
		}
		out = append(out, mem.Interval{Lo: at, Hi: end})
		at = end
	}
	return out
}

// solvePrefixOracle is the prefix minimax both weighted solvers once
// ran (SolveImbalanced over prefix sums and SolveImbalancedPrefix).
func solvePrefixOracle(weight []float64, bytes func(s int64) float64, rgw, rcw, bandwidth float64) int64 {
	n := int64(len(weight) - 1)
	if rgw <= 0 {
		return 0
	}
	if rcw <= 0 {
		return n
	}
	tg := func(s int64) float64 {
		t := weight[s] / rgw
		if bandwidth > 0 {
			t += bytes(s) / bandwidth
		}
		return t
	}
	tc := func(s int64) float64 { return (weight[n] - weight[s]) / rcw }
	lo, hi := int64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		if tg(mid) >= tc(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && math.Max(tg(lo-1), tc(lo-1)) < math.Max(tg(lo), tc(lo)) {
		return lo - 1
	}
	return lo
}

func triangular(t *testing.T, n int64) *task.Kernel {
	t.Helper()
	prob, err := apps.NewTriangular().Build(apps.Variant{N: n})
	if err != nil {
		t.Fatal(err)
	}
	return prob.Phases[0].Kernel
}

func TestWeightAndBytesPrefix(t *testing.T) {
	dir := mem.NewDirectory(2)
	tri := triKernel(dir, 100)
	if prefixBytes(tri, 0) != 0 {
		t.Fatal("prefix bytes must start at 0")
	}
	// Bytes: 4 B per packed element in + 4 B per row out.
	packed := float64(100 * 101 / 2)
	if b := prefixBytes(tri, 100); b != 4*packed+4*100 {
		t.Fatalf("total bytes = %v, want %v", b, 4*packed+4*100)
	}
	for i := int64(1); i <= 100; i++ {
		if prefixBytes(tri, i) < prefixBytes(tri, i-1) {
			t.Fatal("prefix not monotone")
		}
	}

	// Triangular's per-element accesses and flops tile [0, s), so
	// pricing the range gives the per-element sums exactly, at every s.
	for _, n := range []int64{1, 2, 3, 1000, 2048} {
		k := triangular(t, n)
		bytes, weight := bytesPrefixOracle(k), weightPrefixOracle(k)
		for s := int64(0); s <= n; s++ {
			if got := prefixBytes(k, s); got != bytes[s] {
				t.Fatalf("n=%d: bytes of [0,%d) = %v, per-element sum %v", n, s, got, bytes[s])
			}
			if got := k.Flops(0, s); got != weight[s] {
				t.Fatalf("n=%d: weight of [0,%d) = %v, per-element sum %v", n, s, got, weight[s])
			}
		}
	}
}

// TestCutWeightedMatchesPrefixScan pins the range-priced cut to the
// per-element prefix scan it replaced, on Triangular.
func TestCutWeightedMatchesPrefixScan(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 100, 512, 2048, 8192, 32768} {
		k := triangular(t, n)
		prefix := weightPrefixOracle(k)
		for _, lo := range []int64{0, n / 7, n / 3, n / 2, n - 1} {
			for _, m := range []int{1, 2, 3, 12, 48, 64} {
				got, want := CutWeighted(k, lo, n, m), cutWeightedOracle(prefix, lo, n, m)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d lo=%d m=%d: cuts %v, prefix scan %v", n, lo, m, got, want)
				}
			}
		}
	}
}

// TestSolveImbalancedMatchesPrefixMinimax pins the range-priced solver
// to the prefix minimax it replaced: on Triangular with and without
// the transfer term, and on the imbalance experiment's two weight
// profiles.
func TestSolveImbalancedMatchesPrefixMinimax(t *testing.T) {
	rates := [][3]float64{ // rgw, rcw, bandwidth
		{4e9, 1e9, 0}, {900, 100, 0}, {1e12, 2.5e11, 6e9}, {3e11, 3e11, 1e9}, {1e9, 8e12, 1e10},
	}
	for _, n := range []int64{1, 2, 3, 100, 2048, 8192, 32768} {
		k := triangular(t, n)
		prefix := weightPrefixOracle(k)
		bytes := func(s int64) float64 { return prefixBytes(k, s) }
		for _, r := range rates {
			got, err := SolveImbalanced(n, k.Flops, bytes, r[0], r[1], r[2])
			if err != nil {
				t.Fatal(err)
			}
			if want := solvePrefixOracle(prefix, bytes, r[0], r[1], r[2]); got != want {
				t.Fatalf("Triangular n=%d rates %v: split %d, prefix minimax %d", n, r, got, want)
			}
		}
	}

	// The imbalance experiment: element i weighs 1, or i+1, over 2^20
	// elements, GPU 4x the CPU.
	n := int64(1 << 20)
	profiles := map[string]func(lo, hi int64) float64{
		"uniform":   func(lo, hi int64) float64 { return float64(hi - lo) },
		"ascending": func(lo, hi int64) float64 { return float64(hi*(hi+1)/2 - lo*(lo+1)/2) },
	}
	for name, weight := range profiles {
		prefix := make([]float64, n+1)
		for i := int64(1); i <= n; i++ {
			prefix[i] = prefix[i-1] + weight(i-1, i)
		}
		got, err := SolveImbalanced(n, weight, nil, 4e9, 1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := solvePrefixOracle(prefix, nil, 4e9, 1e9, 0); got != want {
			t.Fatalf("%s: split %d, prefix minimax %d", name, got, want)
		}
	}
}

// TestAnalyzeImbalancedMatchesPrefixPipeline runs the deleted
// prefix pipeline next to AnalyzeImbalanced on Triangular: same
// profile, same split, same weight share.
func TestAnalyzeImbalancedMatchesPrefixPipeline(t *testing.T) {
	for _, plat := range []*device.Platform{device.PaperPlatform(12), testPlatform(4)} {
		for _, n := range []int64{100, 2048, 8192, 32768} {
			prob, err := apps.NewTriangular().Build(apps.Variant{N: n})
			if err != nil {
				t.Fatal(err)
			}
			k := prob.Phases[0].Kernel
			dec, err := AnalyzeImbalanced(plat, prob.Dir, k, 1, Config{})
			if err != nil {
				t.Fatal(err)
			}

			est, err := Profile(plat, prob.Dir, k, 1, Config{})
			if err != nil {
				t.Fatal(err)
			}
			s := probeSize(n)
			density := k.Flops(0, s) / float64(s)
			prefix := weightPrefixOracle(k)
			b := est.B
			if math.IsInf(b, 1) {
				b = 0
			}
			bytes := func(s int64) float64 { return prefixBytes(k, s) }
			split := solvePrefixOracle(prefix, bytes, est.Rg*density, est.Rc*density, b)
			split = plat.Device(1).RoundUpWarp(split, n)
			want := Decision{Config: Hybrid, Beta: prefix[split] / prefix[n], NG: split, NC: n - split}
			if dec != want {
				t.Fatalf("%s n=%d: decision %+v, prefix pipeline %+v", plat.Accels[0].Name, n, dec, want)
			}
		}
	}
}

// TestAnalyzeImbalancedAccessCalls bounds the decide cost of the
// weighted pipeline: the accelerator's bytes are priced over a range
// at the points the split search visits, not element by element (one
// decision at n = 32768 once made 32785 access calls).
func TestAnalyzeImbalancedAccessCalls(t *testing.T) {
	prob, err := apps.NewTriangular().Build(apps.Variant{N: 32768})
	if err != nil {
		t.Fatal(err)
	}
	k := prob.Phases[0].Kernel
	calls := 0
	accesses := k.Accesses
	k.Accesses = func(lo, hi int64) []task.Access {
		calls++
		return accesses(lo, hi)
	}
	dec, err := AnalyzeImbalanced(device.PaperPlatform(12), prob.Dir, k, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.NG <= 0 || dec.NG >= 32768 {
		t.Fatalf("split = %d, want interior", dec.NG)
	}
	if calls >= 100 {
		t.Fatalf("one decision made %d access calls, want < 100", calls)
	}
}

func TestCutWeightedBalances(t *testing.T) {
	dir := mem.NewDirectory(2)
	tri := triKernel(dir, 1000)
	cuts := CutWeighted(tri, 0, 1000, 4)
	if len(cuts) != 4 {
		t.Fatalf("cuts = %v", cuts)
	}
	// Spans must tile [0,1000) and have roughly equal weights.
	at := int64(0)
	total := tri.Flops(0, 1000)
	for _, iv := range cuts {
		if iv.Lo != at {
			t.Fatalf("gap at %d: %v", at, cuts)
		}
		at = iv.Hi
		w := tri.Flops(iv.Lo, iv.Hi)
		if w < total/4*0.9 || w > total/4*1.1 {
			t.Fatalf("chunk %v weight %.0f, want ~%.0f", iv, w, total/4)
		}
	}
	if at != 1000 {
		t.Fatalf("cuts end at %d", at)
	}
	// Element counts must be very uneven (light rows first).
	if cuts[0].Len() <= cuts[3].Len() {
		t.Fatalf("first chunk %d elems <= last %d: not weight-balanced", cuts[0].Len(), cuts[3].Len())
	}
}

func TestCutWeightedEdges(t *testing.T) {
	weightless := &task.Kernel{Name: "weightless", Size: 4, Flops: func(lo, hi int64) float64 { return 0 }}
	cuts := CutWeighted(weightless, 0, 4, 2)
	if len(cuts) != 2 || cuts[0].Len()+cuts[1].Len() != 4 {
		t.Fatalf("weightless cuts = %v", cuts)
	}
	if CutWeighted(weightless, 3, 3, 2) != nil {
		t.Fatal("empty range cut")
	}
	if CutWeighted(weightless, 0, 4, 0) != nil {
		t.Fatal("zero-m cut")
	}
}

func TestAnalyzeImbalancedEndToEnd(t *testing.T) {
	plat := testPlatform(4)
	dir := mem.NewDirectory(2)
	tri := triKernel(dir, 2048)
	dec, err := AnalyzeImbalanced(plat, dir, tri, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config != Hybrid || dec.NG+dec.NC != 2048 {
		t.Fatalf("decision = %+v, want a hybrid split of 2048", dec)
	}
	if dec.NG <= 0 || dec.NG >= 2048 {
		t.Fatalf("split = %d, want interior", dec.NG)
	}
	if dec.NG%32 != 0 {
		t.Fatalf("split %d not warp-rounded", dec.NG)
	}
	if dec.Beta <= 0 || dec.Beta >= 1 {
		t.Fatalf("weight share = %v", dec.Beta)
	}
	if !dir.HostWhole() {
		t.Fatal("profiling left device state")
	}
	// No cost function: must error.
	bare := &task.Kernel{Name: "bare", Size: 100}
	if _, err := AnalyzeImbalanced(plat, dir, bare, 1, Config{}); err == nil {
		t.Fatal("cost-less kernel accepted")
	}
}

// TestSolveImbalancedPrefixErrors covers the solver's refusals and
// one-device answers when it prices a transfer term: an uneven weight
// and a bytes function of the prefix, with a bandwidth.
func TestSolveImbalancedPrefixErrors(t *testing.T) {
	ascending := func(lo, hi int64) float64 { return float64(hi*(hi+1)-lo*(lo+1)) / 2 }
	linear := func(s int64) float64 { return float64(s) }
	if _, err := SolveImbalanced(-1, ascending, linear, 1, 1, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if s, _ := SolveImbalanced(4, ascending, linear, 0, 1, 1); s != 0 {
		t.Fatal("dead GPU should give CPU all")
	}
	if s, _ := SolveImbalanced(4, ascending, linear, 1, 0, 1); s != 4 {
		t.Fatal("dead CPU should give GPU all")
	}
	if _, err := SolveImbalanced(4, ascending, linear, 0, 0, 1); err == nil {
		t.Fatal("dead platform accepted")
	}
}
