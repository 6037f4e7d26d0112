package classify

import (
	"strings"
	"testing"

	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// mustClassify classifies a structure the test knows to be valid.
func mustClassify(t *testing.T, s Structure) Class {
	t.Helper()
	c, err := Classify(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassifyFiveClasses(t *testing.T) {
	cases := []struct {
		name string
		s    Structure
		want Class
	}{
		{"single call", single("k"), SKOne},
		{"single kernel looped", singleLoop("k", 10), SKLoop},
		{"single kernel loop unknown trips", singleLoop("k", 0), SKLoop},
		{"same kernel twice", seq(false, "k", "k"), SKLoop},
		{"two kernels", seq(false, "a", "b"), MKSeq},
		{"four kernels (STREAM-Seq)", seq(false, "copy", "scale", "add", "triad"), MKSeq},
		{"looped multi-kernel (STREAM-Loop)", loopSeq(10, false, "copy", "scale", "add", "triad"), MKLoop},
		{"general DAG", dag(
			DAGCall{Kernel: "a"},
			DAGCall{Kernel: "b", After: []int{0}},
			DAGCall{Kernel: "c", After: []int{0}},
			DAGCall{Kernel: "d", After: []int{1, 2}}), MKDAG},
	}
	for _, c := range cases {
		got, err := Classify(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyInnerLoopDoesNotLift(t *testing.T) {
	// A multi-kernel sequence where one kernel has its own inner loop:
	// the paper's unrolling argument keeps it MK-Seq.
	s := Structure{Flow: Seq{
		Call{Kernel: "a"},
		Loop{Body: Call{Kernel: "b"}, Trips: 5},
		Call{Kernel: "c"},
	}}
	if got := mustClassify(t, s); got != MKSeq {
		t.Fatalf("got %v, want MK-Seq (inner loop unrolls)", got)
	}
}

func TestClassifyTopLevelLoopInSequence(t *testing.T) {
	// setup kernel, then an iterated multi-kernel phase: the repeating
	// multi-kernel loop dominates -> MK-Loop.
	s := Structure{Flow: Seq{
		Call{Kernel: "init"},
		Loop{Body: Seq{Call{Kernel: "a"}, Call{Kernel: "b"}}, Trips: 0},
	}}
	if got := mustClassify(t, s); got != MKLoop {
		t.Fatalf("got %v, want MK-Loop", got)
	}
}

func TestClassifyChainDAGIsSeq(t *testing.T) {
	s := dag(
		DAGCall{Kernel: "a"},
		DAGCall{Kernel: "b", After: []int{0}},
		DAGCall{Kernel: "c", After: []int{1}},
	)
	if got := mustClassify(t, s); got != MKSeq {
		t.Fatalf("got %v, want MK-Seq (chain DAG degenerates)", got)
	}
}

func TestClassifyNestedDAGDetected(t *testing.T) {
	s := Structure{Flow: Loop{Body: dag(
		DAGCall{Kernel: "a"},
		DAGCall{Kernel: "b", After: []int{0}},
		DAGCall{Kernel: "c", After: []int{0}},
	).Flow, Trips: 4}}
	if got := mustClassify(t, s); got != MKDAG {
		t.Fatalf("got %v, want MK-DAG", got)
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, err := Classify(Structure{}); err == nil {
		t.Fatal("empty structure accepted")
	}
	if _, err := Classify(Structure{Flow: Seq{}}); err == nil {
		t.Fatal("no-call structure accepted")
	}
}

func TestClassNames(t *testing.T) {
	wantName := map[Class]string{SKOne: "SK-One", SKLoop: "SK-Loop", MKSeq: "MK-Seq", MKLoop: "MK-Loop", MKDAG: "MK-DAG"}
	wantRoman := map[Class]string{SKOne: "I", SKLoop: "II", MKSeq: "III", MKLoop: "IV", MKDAG: "V"}
	for c, n := range wantName {
		if c.String() != n || c.Roman() != wantRoman[c] {
			t.Fatalf("class %d names = %s/%s", int(c), c.String(), c.Roman())
		}
	}
	if SKOne.MultiKernel() || SKLoop.MultiKernel() || !MKSeq.MultiKernel() || !MKDAG.MultiKernel() {
		t.Fatal("MultiKernel predicate wrong")
	}
}

func TestStructureKernelsOrderAndCount(t *testing.T) {
	s := loopSeq(3, false, "c", "a", "b", "a")
	ks := s.Kernels()
	if len(ks) != 3 || ks[0] != "c" || ks[1] != "a" || ks[2] != "b" {
		t.Fatalf("kernels = %v", ks)
	}
	if s.CallCount() != 4 {
		t.Fatalf("call count = %d", s.CallCount())
	}
}

func TestDAGIsChain(t *testing.T) {
	chain := DAG{Calls: []DAGCall{{Kernel: "a"}, {Kernel: "b", After: []int{0}}}}
	if !chain.IsChain() {
		t.Fatal("chain not detected")
	}
	diamond := DAG{Calls: []DAGCall{
		{Kernel: "a"},
		{Kernel: "b", After: []int{0}},
		{Kernel: "c", After: []int{0}},
	}}
	if diamond.IsChain() {
		t.Fatal("diamond detected as chain")
	}
	rootDep := DAG{Calls: []DAGCall{{Kernel: "a", After: []int{0}}}}
	if rootDep.IsChain() {
		t.Fatal("self-dependent root detected as chain")
	}
}

func buf(t *testing.T, n int64) (*mem.Directory, *mem.Buffer, *mem.Buffer) {
	t.Helper()
	d := mem.NewDirectory(2)
	return d, d.Register("x", n, 8), d.Register("y", n, 8)
}

func TestDetectSyncAligned(t *testing.T) {
	_, x, y := buf(t, 1000)
	producer := &task.Kernel{Name: "p", Size: 1000, Accesses: func(lo, hi int64) []task.Access {
		return []task.Access{
			{Buf: x, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Read},
			{Buf: y, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write},
		}
	}}
	consumer := &task.Kernel{Name: "c", Size: 1000, Accesses: func(lo, hi int64) []task.Access {
		return []task.Access{
			{Buf: y, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Read},
			{Buf: x, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write},
		}
	}}
	if DetectSync([]*task.Kernel{producer, consumer}, 1000) {
		t.Fatal("aligned pipeline flagged as needing sync")
	}
}

func TestDetectSyncHalo(t *testing.T) {
	_, x, y := buf(t, 1000)
	stencil := &task.Kernel{Name: "stencil", Size: 1000, Accesses: func(lo, hi int64) []task.Access {
		rlo, rhi := lo-1, hi+1
		if rlo < 0 {
			rlo = 0
		}
		if rhi > 1000 {
			rhi = 1000
		}
		return []task.Access{
			{Buf: x, Interval: mem.Interval{Lo: rlo, Hi: rhi}, Mode: task.Read},
			{Buf: y, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write},
		}
	}}
	swap := &task.Kernel{Name: "swap", Size: 1000, Accesses: func(lo, hi int64) []task.Access {
		return []task.Access{
			{Buf: y, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Read},
			{Buf: x, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write},
		}
	}}
	// Two iterations of stencil+swap: the second stencil reads x
	// outside its chunk, which the first swap wrote.
	if !DetectSync([]*task.Kernel{stencil, swap, stencil, swap}, 1000) {
		t.Fatal("halo dependence not detected")
	}
}

func TestDetectSyncGlobalRead(t *testing.T) {
	_, x, _ := buf(t, 1000)
	nbody := &task.Kernel{Name: "force", Size: 1000, Accesses: func(lo, hi int64) []task.Access {
		return []task.Access{
			{Buf: x, Interval: mem.Interval{Lo: 0, Hi: 1000}, Mode: task.Read},
			{Buf: x, Interval: mem.Interval{Lo: lo, Hi: hi}, Mode: task.Write},
		}
	}}
	if !DetectSync([]*task.Kernel{nbody, nbody}, 1000) {
		t.Fatal("global-read dependence not detected")
	}
}

func TestDetectSyncEdgeCases(t *testing.T) {
	if DetectSync(nil, 1000) || DetectSync([]*task.Kernel{{Name: "k", Size: 10}}, 0) {
		t.Fatal("degenerate inputs flagged")
	}
}

func TestCatalogHas86Apps(t *testing.T) {
	cat := Catalog()
	if len(cat) != 86 {
		t.Fatalf("catalog has %d apps, want 86", len(cat))
	}
	bySuite := map[string]int{}
	seen := map[string]bool{}
	for _, e := range cat {
		bySuite[e.Suite]++
		key := e.Suite + "/" + e.Name
		if seen[key] {
			t.Fatalf("duplicate catalog entry %s", key)
		}
		seen[key] = true
	}
	if len(bySuite) != len(Suites) {
		t.Fatalf("suites = %v", bySuite)
	}
}

func TestCatalogCoverage(t *testing.T) {
	cov, err := CoverageByClass()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := SKOne; c <= MKDAG; c++ {
		if cov[c] == 0 {
			t.Errorf("class %v has no applications in the catalog", c)
		}
		total += cov[c]
	}
	if total != 86 {
		t.Fatalf("classified %d of 86 apps", total)
	}
}

func TestStructureStrings(t *testing.T) {
	s := Structure{Flow: Seq{
		Call{Kernel: "a"},
		Loop{Body: Call{Kernel: "b"}, Trips: 2},
		Loop{Body: Call{Kernel: "c"}},
		DAG{Calls: []DAGCall{{Kernel: "d"}}},
	}}
	str := s.Flow.String()
	for _, want := range []string{"a", "loop[2]b", "loopc", "dag{"} {
		if !strings.Contains(str, want) {
			t.Fatalf("structure string %q missing %q", str, want)
		}
	}
}

func TestCatalogSpotChecks(t *testing.T) {
	want := map[string]Class{
		"Rodinia/hotspot":         SKLoop,
		"Rodinia/huffman":         MKDAG,
		"Rodinia/lavaMD":          SKOne,
		"Rodinia/kmeans":          MKLoop,
		"Parboil/sgemm":           SKOne,
		"Parboil/histo":           MKSeq,
		"SHOC/sort":               MKLoop,
		"NVIDIA SDK/MatrixMul":    SKOne,
		"NVIDIA SDK/Nbody":        SKLoop,
		"AMD APP SDK/BoxFilter":   MKSeq,
		"AMD APP SDK/BitonicSort": MKLoop,
	}
	got := map[string]Class{}
	for _, e := range Catalog() {
		c, err := Classify(e.Structure)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Suite, e.Name, err)
		}
		got[e.Suite+"/"+e.Name] = c
	}
	for key, cls := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("catalog missing %s", key)
			continue
		}
		if g != cls {
			t.Errorf("%s classified %v, want %v", key, g, cls)
		}
	}
}
