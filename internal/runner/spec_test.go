package runner

import (
	"context"
	"errors"
	"strings"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/plan"
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
	fp := plan.Fingerprint(device.PaperPlatform(12))
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
	if plan.Fingerprint(gtx) == fp {
		t.Fatal("different accelerators fingerprint identically")
	}
	if plan.Fingerprint(nil) != "(nil)" {
		t.Fatal("nil platform fingerprint")
	}
}

// calibrated is the paper platform at m threads priced with scales,
// as calib.Report.Apply builds it.
func calibrated(m int, scales ...device.Scale) *device.Platform {
	return device.PaperPlatform(m).WithScales(scales)
}

// TestCalibratedSpecNeverAliasesUncalibrated pins the cache-soundness
// contract: a spec on a calibrated platform must never share a result
// or plan cache key with the same spec on the clean platform — a
// recalibrated cost model is a different simulated world, and the
// platform fingerprint's cost segment says so.
func TestCalibratedSpecNeverAliasesUncalibrated(t *testing.T) {
	plain := Spec{App: "BlackScholes", Strategy: "SP-Single"}
	cal := plain
	cal.Plat = calibrated(0, device.Scale{Device: 1, Factor: 1.6})

	if plain.Key() == cal.Key() {
		t.Fatal("calibrated spec aliased the uncalibrated result cache key")
	}
	if plain.PlanKey("SP-Single") == cal.PlanKey("SP-Single") {
		t.Fatal("calibrated spec aliased the uncalibrated plan cache key")
	}
	if !strings.Contains(cal.Canonical(), "+cost=calibrated[:1:1.6]|") {
		t.Fatalf("calibrated canonical missing the cost segment: %q", cal.Canonical())
	}
	// Calibration-free specs carry no cost segment at all.
	if strings.Contains(plain.Canonical(), "cost=") {
		t.Fatalf("uncalibrated canonical grew a cost segment: %q", plain.Canonical())
	}

	// Different scales are different worlds too.
	other := plain
	other.Plat = calibrated(0, device.Scale{Device: 1, Factor: 1.7})
	if other.Key() == cal.Key() {
		t.Fatal("different calibration scales aliased")
	}
	// ...but scale order is not: the canonical encoding sorts.
	perm := plain
	perm.Plat = calibrated(0, device.Scale{Device: 0, Factor: 1.25}, device.Scale{Device: 1, Factor: 1.6})
	swap := plain
	swap.Plat = calibrated(0, device.Scale{Device: 1, Factor: 1.6}, device.Scale{Device: 0, Factor: 1.25})
	if perm.Key() != swap.Key() {
		t.Fatal("scale order changed the cache key")
	}

	// The resolved platform is the calibrated one the spec names.
	if got := cal.platform().Scales; len(got) != 1 || got[0].Device != 1 {
		t.Fatalf("resolved platform lost its calibration: %+v", got)
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

// TestSpecCanonicalPinned pins both cache-key encodings byte for byte
// for a spec with every field set: the result and plan caches are keyed
// on them and the regress golden embeds Canonical in every bundle, so
// neither may drift. Every decision field must move PlanKey; the
// observation fields must move Key but never PlanKey.
func TestSpecCanonicalPinned(t *testing.T) {
	full := Spec{
		App: "MatrixMul", Strategy: "DP-Perf", Sync: apps.SyncForced, N: 4096, Iters: 3,
		Plat: calibrated(6, device.Scale{Device: 1, Factor: 1.6}), Chunks: 24, NoSeed: true,
		Compute: true, CollectTrace: true, WithMetrics: true, Seed: 7,
		Fault: &fault.Schedule{Version: fault.ScheduleVersion, Seed: 11,
			Faults: []fault.Fault{{Kind: fault.KindSlowdown, Device: fault.AnyDevice, Factor: 2}}},
	}
	const plat = `plat=Intel Xeon E5-2620/m=6/384.0/42.6+Nvidia Tesla K20m/3519.3/208.0/link=6.0:6.0:10000:true+cost=calibrated[:1:1.6]`
	const tail = `seed=7|fault={"version":1,"seed":11,"faults":[{"kind":"slowdown","device":-1,"factor":2}]}`
	if got, want := full.Canonical(),
		`app=MatrixMul|strategy=DP-Perf|sync=1|n=4096|iters=3|`+plat+`|chunks=24|noseed=true|compute=true|trace=true|metrics=true|`+tail; got != want {
		t.Errorf("Canonical drifted:\n got %s\nwant %s", got, want)
	}
	if got, want := full.PlanCanonical("DP-Perf"),
		`plan|app=MatrixMul|strategy=DP-Perf|sync=1|n=4096|iters=3|`+plat+`|chunks=24|noseed=true|`+tail; got != want {
		t.Errorf("PlanCanonical drifted:\n got %s\nwant %s", got, want)
	}
	if got, want := (Spec{App: "HotSpot"}).Canonical(),
		`app=HotSpot|strategy=(matchmake)|sync=0|n=0|iters=0|plat=Intel Xeon E5-2620/m=12/384.0/42.6+Nvidia Tesla K20m/3519.3/208.0/link=6.0:6.0:10000:true|chunks=0|noseed=false|compute=false|trace=false|metrics=false|seed=0|fault=-`; got != want {
		t.Errorf("zero-spec Canonical drifted:\n got %s\nwant %s", got, want)
	}
	if got, want := (Spec{App: "HotSpot"}).PlanCanonical("SP-Single"),
		`plan|app=HotSpot|strategy=SP-Single|sync=0|n=0|iters=0|plat=Intel Xeon E5-2620/m=12/384.0/42.6+Nvidia Tesla K20m/3519.3/208.0/link=6.0:6.0:10000:true|chunks=0|noseed=false|seed=0|fault=-`; got != want {
		t.Errorf("zero-spec PlanCanonical drifted:\n got %s\nwant %s", got, want)
	}

	const resolved = "DP-Perf"
	decision := map[string]func(*Spec){
		"app":      func(s *Spec) { s.App = "HotSpot" },
		"sync":     func(s *Spec) { s.Sync = apps.SyncNone },
		"n":        func(s *Spec) { s.N = 2048 },
		"iters":    func(s *Spec) { s.Iters = 4 },
		"platform": func(s *Spec) { s.Plat = device.PaperPlatform(12) },
		"chunks":   func(s *Spec) { s.Chunks = 12 },
		"noseed":   func(s *Spec) { s.NoSeed = false },
		"seed":     func(s *Spec) { s.Seed = 8 },
		"fault":    func(s *Spec) { s.Fault = nil },
		"calib":    func(s *Spec) { s.Plat = calibrated(6, device.Scale{Device: 1, Factor: 1.7}) },
	}
	for field, mutate := range decision {
		v := full
		mutate(&v)
		if v.PlanKey(resolved) == full.PlanKey(resolved) {
			t.Errorf("decision field %s did not change PlanKey", field)
		}
	}
	if full.PlanKey("SP-Single") == full.PlanKey(resolved) {
		t.Error("the resolved strategy did not change PlanKey")
	}
	observation := map[string]func(*Spec){
		"compute": func(s *Spec) { s.Compute = false },
		"trace":   func(s *Spec) { s.CollectTrace = false },
		"metrics": func(s *Spec) { s.WithMetrics = false },
	}
	for field, mutate := range observation {
		v := full
		mutate(&v)
		if v.PlanKey(resolved) != full.PlanKey(resolved) {
			t.Errorf("observation field %s changed PlanKey", field)
		}
		if v.Key() == full.Key() {
			t.Errorf("observation field %s did not change Key", field)
		}
	}
}

// uncarriableScales are calibrations that no platform spec or
// calibration report could carry, but that WithScales takes as given:
// a factor far below MinScaleFactor, a zero factor, and a repeated
// (kernel, device) pair.
var uncarriableScales = []struct {
	name   string
	scales []device.Scale
}{
	{"tiny factor", []device.Scale{{Device: -1, Factor: 1e-300}}},
	{"zero factor", []device.Scale{{Device: 1, Factor: 0}}},
	{"repeated pair", []device.Scale{{Device: 1, Factor: 1.5}, {Device: 1, Factor: 2}}},
}

// TestUncarriableCalibrationRefused: a run on a platform whose
// calibration breaks device.ValidateScales fails with
// ErrPlatformInvalid, whether the runner decides the plan or replays
// one. BlackScholes SP-Single at n = 16384 used to report a zero
// makespan under the tiny factor and price the zero factor as the
// plain roofline.
func TestUncarriableCalibrationRefused(t *testing.T) {
	for _, c := range uncarriableScales {
		plat := calibrated(0, c.scales...)
		spec := Spec{App: "BlackScholes", Strategy: "SP-Single", N: 16384, Plat: plat}
		r := New(Config{Workers: 1})
		if _, err := r.Run(spec); !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("%s: Run = %v, want ErrPlatformInvalid", c.name, err)
		}
		// A plan decided on the clean platform, bound to the
		// calibrated one as a replayed plan file would be.
		pl, _, err := r.PlanContext(context.Background(), Spec{App: "BlackScholes", Strategy: "SP-Single", N: 16384})
		if err != nil {
			t.Fatal(err)
		}
		bound := *pl
		bound.Platform = plan.Fingerprint(plat)
		if _, err := r.ExecuteContext(context.Background(), spec, &bound); !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("%s: ExecuteContext = %v, want ErrPlatformInvalid", c.name, err)
		}
	}
}
