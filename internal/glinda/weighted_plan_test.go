package glinda_test

import (
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/strategy"
)

// TestPlanImbalancedFlopsCalls bounds the cost calls of one imbalanced
// SP-Single decision, which prices weight over ranges: the split
// search and every weight-equal cut binary-search k.Flops instead of
// reading a per-element prefix (one Plan at n = 32768 once made 32784
// calls).
func TestPlanImbalancedFlopsCalls(t *testing.T) {
	prob, err := apps.NewTriangular().Build(apps.Variant{N: 32768})
	if err != nil {
		t.Fatal(err)
	}
	k := prob.Phases[0].Kernel
	calls := 0
	flops := k.Flops
	k.Flops = func(lo, hi int64) float64 {
		calls++
		return flops(lo, hi)
	}
	pl, err := strategy.SPSingle{}.Plan(prob, device.PaperPlatform(12), strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dec := pl.Decisions[""]; dec.NG != 19552 {
		t.Fatalf("split = %d, want the weighted split 19552", dec.NG)
	}
	if calls >= 400 {
		t.Fatalf("one Plan made %d Flops calls, want < 400", calls)
	}
	t.Logf("%d Flops calls", calls)
}
