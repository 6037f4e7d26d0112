package analyzer

import (
	"slices"
	"strings"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/sim"
	"heteropart/internal/strategy"
)

func TestRankingTableI(t *testing.T) {
	cases := []struct {
		cls  classify.Class
		sync bool
		want []string
	}{
		{classify.SKOne, false, []string{"SP-Single", "DP-Perf", "DP-Dep"}},
		{classify.SKLoop, true, []string{"SP-Single", "DP-Perf", "DP-Dep"}},
		{classify.MKSeq, false, []string{"SP-Unified", "DP-Perf", "DP-Dep", "SP-Varied"}},
		{classify.MKSeq, true, []string{"SP-Varied", "DP-Perf", "DP-Dep", "SP-Unified"}},
		{classify.MKLoop, false, []string{"SP-Unified", "DP-Perf", "DP-Dep", "SP-Varied"}},
		{classify.MKLoop, true, []string{"SP-Varied", "DP-Perf", "DP-Dep", "SP-Unified"}},
		{classify.MKDAG, false, []string{"DP-Perf", "DP-Dep"}},
	}
	for _, c := range cases {
		got := Ranking(c.cls, c.sync)
		if len(got) != len(c.want) {
			t.Fatalf("%v sync=%v: ranking %v, want %v", c.cls, c.sync, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%v sync=%v: ranking %v, want %v", c.cls, c.sync, got, c.want)
			}
		}
	}
	if Ranking(classify.Class(99), false) != nil {
		t.Fatal("unknown class has a ranking")
	}
}

func TestAnalyzePicksTableIHead(t *testing.T) {
	cases := []struct {
		app  string
		sync apps.SyncMode
		best string
	}{
		{"MatrixMul", apps.SyncDefault, "SP-Single"},
		{"BlackScholes", apps.SyncDefault, "SP-Single"},
		{"Nbody", apps.SyncDefault, "SP-Single"},
		{"HotSpot", apps.SyncDefault, "SP-Single"},
		{"STREAM-Seq", apps.SyncNone, "SP-Unified"},
		{"STREAM-Seq", apps.SyncForced, "SP-Varied"},
		{"STREAM-Loop", apps.SyncNone, "SP-Unified"},
		{"STREAM-Loop", apps.SyncForced, "SP-Varied"},
		{"Cholesky", apps.SyncDefault, "DP-Perf"},
		{"Convolution", apps.SyncDefault, "SP-Varied"},
		{"Triangular", apps.SyncDefault, "SP-Single"},
	}
	for _, c := range cases {
		app, err := apps.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		p, err := app.Build(apps.Variant{N: 512, Iters: 2, Sync: c.sync})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Best != c.best {
			t.Errorf("%s sync=%d: best = %s, want %s", c.app, c.sync, rep.Best, c.best)
		}
		if rep.String() == "" || !strings.Contains(rep.String(), rep.Best) {
			t.Errorf("report string %q does not mention best", rep.String())
		}
	}
}

func TestAnalyzeDerivesSyncFromAccessPatterns(t *testing.T) {
	// STREAM-Seq's kernels are element-aligned: no derived sync.
	app, _ := apps.ByName("STREAM-Seq")
	p, _ := app.Build(apps.Variant{N: 1024, Sync: apps.SyncNone})
	rep, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeedsSync {
		t.Fatal("aligned STREAM derived a sync requirement")
	}
}

// TestAnalyzeSkipsRatioSplitForAtomicPhases pins the fix for an
// atomic-phase problem whose class ranks a ratio-splitting static
// strategy first: Cholesky at n=1024 is 2x2 tiles, a chain, so it
// classifies as MK-Seq with sync. SP-Varied and SP-Unified refuse
// indivisible phases, so Analyze must leave them out (the facade's
// TestMatchmakeSkipsRatioSplitForAtomicPhases runs the pick).
func TestAnalyzeSkipsRatioSplitForAtomicPhases(t *testing.T) {
	app, err := apps.ByName("Cholesky")
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(apps.Variant{N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != classify.MKSeq || !rep.NeedsSync {
		t.Fatalf("Cholesky n=1024 classified %v sync=%v, want MK-Seq with sync", rep.Class, rep.NeedsSync)
	}
	if want := []string{"DP-Perf", "DP-Dep"}; !slices.Equal(rep.Ranked, want) {
		t.Fatalf("ranked %v, want %v", rep.Ranked, want)
	}
	if rep.Best != "DP-Perf" {
		t.Fatalf("best = %s, want DP-Perf", rep.Best)
	}
	// Table I itself is untouched.
	if got := Ranking(rep.Class, rep.NeedsSync); got[0] != "SP-Varied" {
		t.Fatalf("Table I head for MK-Seq with sync = %s, want SP-Varied", got[0])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(&apps.Problem{}); err == nil {
		t.Fatal("empty problem analyzed")
	}
}

// TestPaperHeadlineShapes pins the qualitative observations of
// Section IV that the calibration targets.
func TestPaperHeadlineShapes(t *testing.T) {
	plat := device.PaperPlatform(12)
	run := func(appName string, sync apps.SyncMode, strat string) *strategy.Outcome {
		t.Helper()
		app, _ := apps.ByName(appName)
		p, err := app.Build(apps.Variant{Sync: sync})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := strategy.ByName(strat)
		out, err := s.Run(p, plat, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// MatrixMul: Only-GPU far ahead of Only-CPU; SP-Single ~90% GPU;
	// DP-Dep leaves the GPU nearly idle (one instance).
	mmOG := run("MatrixMul", apps.SyncDefault, "Only-GPU")
	mmOC := run("MatrixMul", apps.SyncDefault, "Only-CPU")
	if r := mmOC.Result.Makespan.Seconds() / mmOG.Result.Makespan.Seconds(); r < 5 || r > 15 {
		t.Errorf("MatrixMul OC/OG = %.2f, want ~8.4", r)
	}
	mmSP := run("MatrixMul", apps.SyncDefault, "SP-Single")
	if g := mmSP.GPURatio(); g < 0.85 || g > 0.95 {
		t.Errorf("MatrixMul SP-Single GPU share = %.2f, want ~0.90", g)
	}
	mmDep := run("MatrixMul", apps.SyncDefault, "DP-Dep")
	if n := mmDep.Result.InstancesByDevice[1]; n != 1 {
		t.Errorf("MatrixMul DP-Dep GPU instances = %d, want 1 (Section IV-B1)", n)
	}

	// BlackScholes: SP-Single ~41%/59% CPU/GPU; DP-Perf overassigns
	// the GPU.
	bsSP := run("BlackScholes", apps.SyncDefault, "SP-Single")
	if g := bsSP.GPURatio(); g < 0.54 || g > 0.64 {
		t.Errorf("BlackScholes SP-Single GPU share = %.2f, want ~0.59", g)
	}
	bsPerf := run("BlackScholes", apps.SyncDefault, "DP-Perf")
	if bsPerf.GPURatio() <= bsSP.GPURatio() {
		t.Errorf("BlackScholes DP-Perf GPU share %.2f not above optimal %.2f",
			bsPerf.GPURatio(), bsSP.GPURatio())
	}

	// HotSpot: transfers make Only-GPU slower than Only-CPU, and the
	// static split leans CPU.
	hsOG := run("HotSpot", apps.SyncDefault, "Only-GPU")
	hsOC := run("HotSpot", apps.SyncDefault, "Only-CPU")
	if hsOG.Result.Makespan <= hsOC.Result.Makespan {
		t.Error("HotSpot Only-GPU should lose to Only-CPU (transfer-bound)")
	}
	hsSP := run("HotSpot", apps.SyncDefault, "SP-Single")
	if g := hsSP.GPURatio(); g >= 0.5 {
		t.Errorf("HotSpot SP-Single GPU share = %.2f, want CPU-leaning", g)
	}

	// STREAM-Seq w/o sync: unified split near 44%/56% GPU/CPU, and the
	// GPU side is transfer-dominated.
	ssSP := run("STREAM-Seq", apps.SyncNone, "SP-Unified")
	if g := ssSP.GPURatio(); g < 0.40 || g > 0.55 {
		t.Errorf("STREAM-Seq SP-Unified GPU share = %.2f, want ~0.44-0.49", g)
	}
	// STREAM-Loop w/o sync: iteration reuse flips Only-GPU ahead of
	// Only-CPU (Section IV-B4).
	slOG := run("STREAM-Loop", apps.SyncNone, "Only-GPU")
	slOC := run("STREAM-Loop", apps.SyncNone, "Only-CPU")
	if slOG.Result.Makespan >= slOC.Result.Makespan {
		t.Error("STREAM-Loop Only-GPU should beat Only-CPU")
	}

	// Nbody: compute-bound, GPU-leaning static split.
	nbSP := run("Nbody", apps.SyncDefault, "SP-Single")
	if g := nbSP.GPURatio(); g < 0.7 || g > 0.9 {
		t.Errorf("Nbody SP-Single GPU share = %.2f, want ~0.8", g)
	}
}

// TestValidateRankingMismatchDetection: measured times that invert
// the ranking beyond the tolerance must not match, and times within it
// must.
func TestValidateRankingMismatchDetection(t *testing.T) {
	rep := Report{Ranked: []string{"A", "B"}}
	v := CheckRanking(rep, map[string]sim.Duration{"A": 200, "B": 100})
	if v.Matches {
		t.Fatal("inverted times considered matching")
	}
	if !slices.Equal(v.Empirical, []string{"B", "A"}) {
		t.Fatalf("empirical order %v, want [B A]", v.Empirical)
	}
	if v := CheckRanking(rep, map[string]sim.Duration{"A": 104, "B": 100}); !v.Matches {
		t.Fatal("a tie within the 5% tolerance considered a mismatch")
	}
}
