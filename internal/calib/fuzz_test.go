package calib

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/sim"
	"heteropart/internal/strategy"
)

// FuzzCalibrationFromJSON decodes arbitrary bytes as a calibration
// report. A refusal must wrap ErrPlatformInvalid. An accepted report is
// applied to the paper platform under that platform's fingerprint:
// Apply must refuse it with ErrPlatformInvalid exactly when a scale
// names a device the platform lacks, and otherwise give a platform
// that carries one small simulation to a typed error or to a finite,
// positive makespan with an encodable plan. The hostile seeds are
// factors that would zero the makespan and turn Glinda's split NaN,
// and a scale for a device the platform lacks.
func FuzzCalibrationFromJSON(f *testing.F) {
	paper := device.PaperPlatform(0)
	report := func(factor string) []byte {
		return []byte(fmt.Sprintf(`{"version":1,"app":"BlackScholes","platform":%q,`+
			`"scales":[{"device":0,"factor":%s},{"device":1,"factor":%s}]}`, paper.Fingerprint(), factor, factor))
	}
	f.Add(report("1.5"))
	f.Add(report("0.001"))
	f.Add(report("1000"))
	f.Add(report("1e300"))
	f.Add(report("1e-300"))
	f.Add([]byte(`{"version":1,"platform":"x","scales":[{"kernel":"bsPrice","device":-1,"factor":2}],` +
		`"rounds":[{"round":1,"samples":3,"mean_abs_rel_err":0.2,"makespan_ns":100}]}`))
	f.Add([]byte(fmt.Sprintf(`{"version":1,"app":"BlackScholes","platform":%q,`+
		`"scales":[{"kernel":"black_scholes","device":7,"factor":2}]}`, paper.Fingerprint())))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := FromJSON(data)
		if err != nil {
			if !errors.Is(err, apierr.ErrPlatformInvalid) {
				t.Fatalf("refusal does not wrap ErrPlatformInvalid: %v", err)
			}
			return
		}
		r.Platform = paper.Fingerprint()
		foreign := slices.ContainsFunc(r.Scales, func(s device.Scale) bool { return s.Device > len(paper.Accels) })
		plat, err := r.Apply(paper)
		switch {
		case foreign && !errors.Is(err, apierr.ErrPlatformInvalid):
			t.Fatalf("report scaling a device the platform lacks: Apply = %v, want ErrPlatformInvalid", err)
		case foreign:
			return
		case err != nil:
			t.Fatalf("accepted report does not apply to the platform it binds to: %v", err)
		}
		simulate(t, plat)
	})
}

// simulate runs BlackScholes at n = 4096 under SP-Single on plat. The
// run must end in an error wrapping an apierr sentinel, or in a
// finite, positive makespan whose plan encodes.
func simulate(t *testing.T, plat *device.Platform) {
	t.Helper()
	app, err := apps.ByName("BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(apps.Variant{N: 4096, Spaces: 1 + len(plat.Accels)})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := strategy.SPSingle{}.Plan(p, plat, strategy.Options{})
	if err != nil {
		typed(t, "plan", err)
		return
	}
	if _, err := json.Marshal(pl); err != nil {
		t.Fatalf("plan cannot be encoded: %v", err)
	}
	out, err := strategy.Execute(pl, p, plat, strategy.Options{})
	if err != nil {
		typed(t, "execute", err)
		return
	}
	if m := out.Result.Makespan; m <= 0 || m >= sim.MaxTime {
		t.Fatalf("makespan %d ns is not finite and positive", int64(m))
	}
}

// typed fails the test unless err wraps one of the API's sentinels.
func typed(t *testing.T, stage string, err error) {
	t.Helper()
	for _, s := range []error{apierr.ErrPlatformInvalid, apierr.ErrPlanInvalid, apierr.ErrOptionsInvalid,
		apierr.ErrPlatformMismatch, apierr.ErrCalibrationStale} {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("%s failed with an untyped error: %v", stage, err)
}
