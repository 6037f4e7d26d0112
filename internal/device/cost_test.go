package device

import (
	"math/rand"
	"testing"
)

// TestCalibratedFactorPrecedence pins the scale resolution order:
// exact kernel+device beats kernel-only beats device-only beats the
// global override, regardless of slice order; non-positive factors are
// ignored entirely.
func TestCalibratedFactorPrecedence(t *testing.T) {
	scales := []Scale{
		{Kernel: "", Device: -1, Factor: 2},       // global, rank 0
		{Kernel: "", Device: 1, Factor: 3},        // device-only, rank 1
		{Kernel: "saxpy", Device: -1, Factor: 5},  // kernel-only, rank 2
		{Kernel: "saxpy", Device: 1, Factor: 7},   // exact, rank 3
		{Kernel: "saxpy", Device: 2, Factor: -10}, // non-positive: ignored
	}
	cases := []struct {
		name   string
		kernel string
		dev    int
		want   float64
	}{
		{"exact beats all", "saxpy", 1, 7},
		{"kernel-only beats device-only", "saxpy", 2, 5},
		{"device-only beats global", "dgemm", 1, 3},
		{"global is the floor", "dgemm", 2, 2},
	}
	// Precedence must hold for every ordering of the overrides, not
	// just the declaration order (matching is by specificity).
	rng := rand.New(rand.NewSource(7))
	for perm := 0; perm < 20; perm++ {
		shuffled := append([]Scale(nil), scales...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, tc := range cases {
			if got := factor(shuffled, tc.kernel, tc.dev); got != tc.want {
				t.Fatalf("perm %d, %s: factor(%q, %d) = %g, want %g",
					perm, tc.name, tc.kernel, tc.dev, got, tc.want)
			}
		}
	}

	if got := factor(nil, "saxpy", 1); got != 1 {
		t.Errorf("no overrides: factor = %g, want 1", got)
	}
}

// TestCalibratedCanonicalPermutationStable pins the byte-stability of
// the scales' fingerprint segment: any ordering of the same scales
// must render identically, and a different set must not.
func TestCalibratedCanonicalPermutationStable(t *testing.T) {
	scales := []Scale{
		{Kernel: "copy", Device: 1, Factor: 1.5},
		{Kernel: "", Device: -1, Factor: 2},
		{Kernel: "copy", Device: -1, Factor: 0.75},
		{Kernel: "add", Device: 2, Factor: 1.25},
		{Kernel: "", Device: 2, Factor: 3},
	}
	fingerprint := func(scales []Scale) string { return PaperPlatform(0).WithScales(scales).Fingerprint() }
	want := fingerprint(scales)

	rng := rand.New(rand.NewSource(11))
	for perm := 0; perm < 50; perm++ {
		shuffled := append([]Scale(nil), scales...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := fingerprint(shuffled); got != want {
			t.Fatalf("perm %d: canonical %q != %q", perm, got, want)
		}
	}

	changed := append([]Scale(nil), scales...)
	changed[0].Factor = 1.6
	if got := fingerprint(changed); got == want {
		t.Errorf("different factor must change the canonical, both are %q", got)
	}
}

// TestMergeScales pins the merge semantics the calibration loop relies
// on: exact (kernel, device) pairs are replaced, everything else
// survives, and the result is order-independent.
func TestMergeScales(t *testing.T) {
	old := []Scale{
		{Kernel: "", Device: -1, Factor: 2},
		{Kernel: "copy", Device: 1, Factor: 1.5},
	}
	fitted := []Scale{
		{Kernel: "copy", Device: 1, Factor: 1.8}, // replaces
		{Kernel: "add", Device: 1, Factor: 1.1},  // new
	}
	merged := MergeScales(old, fitted)
	if got := factor(merged, "copy", 1); got != 1.8 {
		t.Errorf("fitted exact pair must replace: factor(copy,1) = %g, want 1.8", got)
	}
	if got := factor(merged, "add", 1); got != 1.1 {
		t.Errorf("fitted new pair must apply: factor(add,1) = %g, want 1.1", got)
	}
	if got := factor(merged, "scale", 2); got != 2 {
		t.Errorf("surviving global must apply: factor(scale,2) = %g, want 2", got)
	}
	if len(merged) != 3 {
		t.Errorf("merged %d scales, want 3: %+v", len(merged), merged)
	}
	// Same merge from permuted inputs is byte-equal.
	againOld := []Scale{old[1], old[0]}
	againFit := []Scale{fitted[1], fitted[0]}
	a := PaperPlatform(0).WithScales(merged).Fingerprint()
	b := PaperPlatform(0).WithScales(MergeScales(againOld, againFit)).Fingerprint()
	if a != b {
		t.Errorf("merge is order-dependent: %q != %q", a, b)
	}
}

// TestWithScalesAndUncalibrated pins the platform recalibration
// helpers: WithScales never mutates the receiver and replaces any
// previous scales, and Uncalibrated strips them down to the base
// fingerprint.
func TestWithScalesAndUncalibrated(t *testing.T) {
	base := PaperPlatform(0)
	baseFP := base.Fingerprint()

	cal := base.WithScales([]Scale{{Device: 1, Factor: 1.5}})
	if base.Fingerprint() != baseFP {
		t.Fatalf("WithScales mutated the receiver: %q", base.Fingerprint())
	}
	if cal.Fingerprint() == baseFP {
		t.Fatalf("calibrated fingerprint must differ from the base")
	}
	if got := cal.Uncalibrated().Fingerprint(); got != baseFP {
		t.Errorf("Uncalibrated fingerprint = %q, want base %q", got, baseFP)
	}

	// Recalibrating replaces the scales; it never compounds them.
	recal := cal.WithScales([]Scale{{Device: 1, Factor: 2}})
	if got, want := recal.Fingerprint(), baseFP+"+cost=calibrated[:1:2]"; got != want {
		t.Errorf("recalibrated fingerprint = %q, want %q", got, want)
	}
	if got := recal.Uncalibrated().Fingerprint(); got != baseFP {
		t.Errorf("recalibrated Uncalibrated fingerprint = %q, want base %q", got, baseFP)
	}
	// An already-uncalibrated platform comes back unchanged.
	if base.Uncalibrated() != base {
		t.Errorf("Uncalibrated on a base platform must return the receiver")
	}
}
