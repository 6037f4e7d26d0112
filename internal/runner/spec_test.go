package runner

import (
	"strings"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
)

func TestSpecKeyStable(t *testing.T) {
	a := Spec{App: "MatrixMul", Strategy: "SP-Single"}
	b := Spec{App: "MatrixMul", Strategy: "SP-Single"}
	if a.Key() != b.Key() {
		t.Fatal("equal specs produced different keys")
	}
	if a.Canonical() != b.Canonical() {
		t.Fatal("equal specs produced different canonical encodings")
	}
}

func TestSpecKeyDiscriminates(t *testing.T) {
	base := Spec{App: "BlackScholes", Strategy: "DP-Perf"}
	variants := map[string]Spec{
		"app":      {App: "MatrixMul", Strategy: "DP-Perf"},
		"strategy": {App: "BlackScholes", Strategy: "SP-Single"},
		"sync":     {App: "BlackScholes", Strategy: "DP-Perf", Sync: apps.SyncForced},
		"n":        {App: "BlackScholes", Strategy: "DP-Perf", N: 4096},
		"iters":    {App: "BlackScholes", Strategy: "DP-Perf", Iters: 3},
		"chunks":   {App: "BlackScholes", Strategy: "DP-Perf", Chunks: 24},
		"noseed":   {App: "BlackScholes", Strategy: "DP-Perf", NoSeed: true},
		"compute":  {App: "BlackScholes", Strategy: "DP-Perf", Compute: true},
		"trace":    {App: "BlackScholes", Strategy: "DP-Perf", CollectTrace: true},
		"metrics":  {App: "BlackScholes", Strategy: "DP-Perf", WithMetrics: true},
		"seed":     {App: "BlackScholes", Strategy: "DP-Perf", Seed: 7},
		"platform": {App: "BlackScholes", Strategy: "DP-Perf", Plat: device.PaperPlatform(6)},
	}
	for field, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("spec differing only in %s aliased to the same key", field)
		}
	}
}

func TestSpecPlatformDefault(t *testing.T) {
	// nil Plat must fingerprint identically to the explicit paper
	// platform at its default thread count.
	implicit := Spec{App: "Nbody", Strategy: "SP-Single"}
	explicit := Spec{App: "Nbody", Strategy: "SP-Single", Plat: device.PaperPlatform(0)}
	if implicit.Key() != explicit.Key() {
		t.Fatal("nil platform does not alias the default paper platform")
	}
	narrower := Spec{App: "Nbody", Strategy: "SP-Single", Plat: device.PaperPlatform(6)}
	if implicit.Key() == narrower.Key() {
		t.Fatal("platforms with different thread counts aliased")
	}
}

func TestPlatformFingerprintContents(t *testing.T) {
	fp := PlatformFingerprint(device.PaperPlatform(12))
	for _, want := range []string{"m=12", "K20m"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("fingerprint %q missing %q", fp, want)
		}
	}
	gtx, err := device.NewPlatform(device.XeonE5_2620(), 12,
		device.Attachment{Model: device.GTX680(), Link: device.PCIeGen3x16()})
	if err != nil {
		t.Fatal(err)
	}
	if PlatformFingerprint(gtx) == fp {
		t.Fatal("different accelerators fingerprint identically")
	}
	if PlatformFingerprint(nil) != "(nil)" {
		t.Fatal("nil platform fingerprint")
	}
}

// TestCalibratedSpecNeverAliasesUncalibrated pins the cache-soundness
// contract: a spec carrying calibration scales must never share a
// result or plan cache key with the same spec without them — a
// recalibrated cost model is a different simulated world.
func TestCalibratedSpecNeverAliasesUncalibrated(t *testing.T) {
	plain := Spec{App: "BlackScholes", Strategy: "SP-Single"}
	calibrated := plain
	calibrated.Calib = []device.Scale{{Device: 1, Factor: 1.6}}

	if plain.Key() == calibrated.Key() {
		t.Fatal("calibrated spec aliased the uncalibrated result cache key")
	}
	if plain.PlanKey("SP-Single") == calibrated.PlanKey("SP-Single") {
		t.Fatal("calibrated spec aliased the uncalibrated plan cache key")
	}
	if !strings.Contains(calibrated.Canonical(), "|calib=calibrated[") {
		t.Fatalf("calibrated canonical missing the calib segment: %q", calibrated.Canonical())
	}
	// Calibration-free specs must encode exactly as before the field
	// existed — no empty |calib= suffix.
	if strings.Contains(plain.Canonical(), "calib=") {
		t.Fatalf("uncalibrated canonical grew a calib segment: %q", plain.Canonical())
	}

	// Different scales are different worlds too.
	other := plain
	other.Calib = []device.Scale{{Device: 1, Factor: 1.7}}
	if other.Key() == calibrated.Key() {
		t.Fatal("different calibration scales aliased")
	}
	// ...but scale order is not: the canonical encoding sorts.
	perm := plain
	perm.Calib = []device.Scale{{Device: 0, Factor: 1.25}, {Device: 1, Factor: 1.6}}
	swap := plain
	swap.Calib = []device.Scale{{Device: 1, Factor: 1.6}, {Device: 0, Factor: 1.25}}
	if perm.Key() != swap.Key() {
		t.Fatal("scale order changed the cache key")
	}

	// The resolved platform actually carries the calibration (and the
	// spec's fingerprint shows it), replacing any pre-existing one.
	pre := Spec{App: "BlackScholes", Strategy: "SP-Single",
		Plat:  device.PaperPlatform(0).WithCost(&device.Calibrated{Scales: []device.Scale{{Device: 0, Factor: 2}}}),
		Calib: []device.Scale{{Device: 1, Factor: 1.6}}}
	cal, ok := pre.platform().Cost.(*device.Calibrated)
	if !ok {
		t.Fatalf("resolved platform cost = %T", pre.platform().Cost)
	}
	if len(cal.Scales) != 1 || cal.Scales[0].Device != 1 {
		t.Fatalf("spec calibration did not replace the platform's: %+v", cal.Scales)
	}
}

func TestSpecCanonicalMatchmakeSentinel(t *testing.T) {
	s := Spec{App: "HotSpot"}
	if !strings.Contains(s.Canonical(), "strategy=(matchmake)") {
		t.Fatalf("canonical = %q", s.Canonical())
	}
	if s.String() != "HotSpot/(matchmake)" {
		t.Fatalf("String = %q", s.String())
	}
}
