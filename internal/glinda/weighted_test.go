package glinda

import (
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

func TestWeightAndBytesPrefix(t *testing.T) {
	dir := mem.NewDirectory(2)
	tri := triKernel(dir, 100)
	w := WeightPrefix(tri)
	if len(w) != 101 {
		t.Fatalf("prefix length %d", len(w))
	}
	if w[0] != 0 || prefixBytes(tri, 0) != 0 {
		t.Fatal("prefixes must start at 0")
	}
	// Total weight = 8 * packed elements.
	packed := float64(100 * 101 / 2)
	if w[100] != 8*packed {
		t.Fatalf("total weight = %v, want %v", w[100], 8*packed)
	}
	// Bytes: 4 B per packed element in + 4 B per row out.
	if b := prefixBytes(tri, 100); b != 4*packed+4*100 {
		t.Fatalf("total bytes = %v, want %v", b, 4*packed+4*100)
	}
	for i := int64(1); i <= 100; i++ {
		if w[i] < w[i-1] || prefixBytes(tri, i) < prefixBytes(tri, i-1) {
			t.Fatal("prefix not monotone")
		}
	}

	// Triangular's per-element accesses tile [0, s), so pricing the
	// range gives the per-element sum exactly, at every s.
	for _, n := range []int64{1, 2, 3, 1000, 2048} {
		prob, err := apps.NewTriangular().Build(apps.Variant{N: n})
		if err != nil {
			t.Fatal(err)
		}
		k := prob.Phases[0].Kernel
		want := bytesPrefixOracle(k)
		for s := int64(0); s <= n; s++ {
			if got := prefixBytes(k, s); got != want[s] {
				t.Fatalf("n=%d: bytes of [0,%d) = %v, per-element sum %v", n, s, got, want[s])
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
	if dec.Split <= 0 || dec.Split >= 32768 {
		t.Fatalf("split = %d, want interior", dec.Split)
	}
	if calls >= 100 {
		t.Fatalf("one decision made %d access calls, want < 100", calls)
	}
}

func TestCutWeightedBalances(t *testing.T) {
	dir := mem.NewDirectory(2)
	tri := triKernel(dir, 1000)
	d := DecisionImbalanced{Prefix: WeightPrefix(tri), N: 1000}
	cuts := d.CutWeighted(0, 1000, 4)
	if len(cuts) != 4 {
		t.Fatalf("cuts = %v", cuts)
	}
	// Spans must tile [0,1000) and have roughly equal weights.
	at := int64(0)
	total := d.Prefix[1000]
	for _, iv := range cuts {
		if iv.Lo != at {
			t.Fatalf("gap at %d: %v", at, cuts)
		}
		at = iv.Hi
		w := d.Prefix[iv.Hi] - d.Prefix[iv.Lo]
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
	d := DecisionImbalanced{Prefix: []float64{0, 0, 0, 0, 0}, N: 4}
	cuts := d.CutWeighted(0, 4, 2)
	if len(cuts) != 2 || cuts[0].Len()+cuts[1].Len() != 4 {
		t.Fatalf("weightless cuts = %v", cuts)
	}
	if d.CutWeighted(3, 3, 2) != nil {
		t.Fatal("empty range cut")
	}
	if d.CutWeighted(0, 4, 0) != nil {
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
	if dec.Split <= 0 || dec.Split >= 2048 {
		t.Fatalf("split = %d, want interior", dec.Split)
	}
	if dec.Split%32 != 0 {
		t.Fatalf("split %d not warp-rounded", dec.Split)
	}
	if dec.GPUWeightShare <= 0 || dec.GPUWeightShare >= 1 {
		t.Fatalf("weight share = %v", dec.GPUWeightShare)
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

func TestSolveImbalancedPrefixErrors(t *testing.T) {
	linear := func(s int64) float64 { return float64(s) }
	if _, err := SolveImbalancedPrefix([]float64{0, 2, 1}, linear, 1, 1, 0); err == nil {
		t.Fatal("decreasing weight accepted")
	}
	if s, _ := SolveImbalancedPrefix([]float64{0, 1}, linear, 0, 1, 0); s != 0 {
		t.Fatal("dead GPU should give CPU all")
	}
	if s, _ := SolveImbalancedPrefix([]float64{0, 1}, linear, 1, 0, 0); s != 1 {
		t.Fatal("dead CPU should give GPU all")
	}
	if _, err := SolveImbalancedPrefix([]float64{0, 1}, linear, 0, 0, 0); err == nil {
		t.Fatal("dead platform accepted")
	}
}
