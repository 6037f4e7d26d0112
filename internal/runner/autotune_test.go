package runner

import (
	"slices"
	"testing"

	"heteropart/internal/device"
)

// TestAutoTuneChunksPicksMinimum: the tuner returns the candidate with
// the smallest measured makespan, and among equal makespans the
// earliest candidate.
func TestAutoTuneChunksPicksMinimum(t *testing.T) {
	r := New(Config{Workers: 2})
	plat := device.PaperPlatform(4)
	best, sweep, err := r.AutoTuneChunks(
		Spec{App: "BlackScholes", Strategy: "DP-Perf", N: 50000, Plat: plat}, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 3 {
		t.Fatalf("sweep = %v", sweep)
	}
	minT, minM := sweep[0].Makespan, sweep[0].Chunks
	for _, pt := range sweep {
		if pt.Makespan < minT {
			minT, minM = pt.Makespan, pt.Chunks
		}
	}
	if best != minM {
		t.Fatalf("best = %d, measured min at %d", best, minM)
	}

	// On 100 elements every count of at least 100 cuts the same 100
	// one-element instances, so the three runs tie exactly.
	best, sweep, err = r.AutoTuneChunks(
		Spec{App: "BlackScholes", Strategy: "DP-Dep", N: 100, Plat: plat}, []int{200, 100, 150})
	if err != nil {
		t.Fatal(err)
	}
	if sweep[0].Makespan != sweep[1].Makespan || sweep[1].Makespan != sweep[2].Makespan {
		t.Fatalf("want a three-way tie, sweep = %v", sweep)
	}
	if best != 200 {
		t.Fatalf("tie broke toward m=%d, want the earliest candidate 200", best)
	}
}

// TestAutoTuneChunksErrors: nonpositive candidates are rejected before
// any run, and a strategy's failure propagates.
func TestAutoTuneChunksErrors(t *testing.T) {
	r := New(Config{Workers: 2})
	plat := device.PaperPlatform(4)
	for _, bad := range [][]int{{0}, {4, -3}} {
		if _, _, err := r.AutoTuneChunks(
			Spec{App: "BlackScholes", Strategy: "DP-Perf", N: 1000, Plat: plat}, bad); err == nil {
			t.Fatalf("candidates %v accepted", bad)
		}
	}
	if _, _, err := r.AutoTuneChunks(
		Spec{App: "STREAM-Seq", Strategy: "SP-Single", N: 1000, Plat: plat}, []int{2}); err == nil {
		t.Fatal("error from strategy not propagated")
	}
}

// TestAutoTuneDefaultCandidates: a nil candidate list sweeps
// DefaultChunkCandidates, in order.
func TestAutoTuneDefaultCandidates(t *testing.T) {
	r := New(Config{Workers: 2})
	_, sweep, err := r.AutoTuneChunks(
		Spec{App: "BlackScholes", Strategy: "DP-Dep", N: 100000, Plat: device.PaperPlatform(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(sweep))
	for i, pt := range sweep {
		got[i] = pt.Chunks
	}
	if !slices.Equal(got, DefaultChunkCandidates) {
		t.Fatalf("swept %v, want %v", got, DefaultChunkCandidates)
	}
}
