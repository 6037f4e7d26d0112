package device_test

import (
	"encoding/json"
	"errors"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/sim"
	"heteropart/internal/strategy"
)

// FuzzSpecFromJSON decodes arbitrary bytes as a PlatformSpec. A refusal
// must wrap ErrPlatformInvalid; an accepted spec must carry one small
// simulation to a typed error or to a finite, positive makespan with
// an encodable plan. The hostile seeds are links and factors the
// simulator cannot price, a calibration whose price would depend on
// its scales' order, and a calibration without scales.
func FuzzSpecFromJSON(f *testing.F) {
	for _, name := range device.SpecNames() {
		s, err := device.SpecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := s.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	const host = `{"version":1,"name":"hostile","host":{"model":"xeon-e5-2620"},`
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"htod_gbps":1e-300,"dtoh_gbps":6}}]}`))
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"htod_gbps":6,"dtoh_gbps":6,"latency_ns":-1000000000}}]}`))
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"name":"pcie2x16"}}],` +
		`"cost":{"model":"calibrated","scales":[{"device":0,"factor":1e300},{"device":1,"factor":1e300}]}}`))
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"name":"pcie2x16"}}],` +
		`"cost":{"model":"calibrated","scales":[{"device":0,"factor":1e-300},{"device":1,"factor":1e-300}]}}`))
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"name":"pcie2x16"}},{"model":"gtx-680","link":{"name":"pcie3x16"}}],` +
		`"p2p":[{"a":1,"b":2,"link":{"htod_gbps":10,"dtoh_gbps":1e-300,"latency_ns":5000}}]}`))
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"name":"pcie2x16"}}],` +
		`"cost":{"model":"calibrated","scales":[{"device":1,"factor":2},{"device":1,"factor":3}]}}`))
	f.Add([]byte(host + `"accels":[{"model":"tesla-k20m","link":{"name":"pcie2x16"}}],"cost":{"model":"calibrated"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := device.SpecFromJSON(data)
		if err != nil {
			if !errors.Is(err, apierr.ErrPlatformInvalid) {
				t.Fatalf("refusal does not wrap ErrPlatformInvalid: %v", err)
			}
			return
		}
		plat, err := s.ToPlatform(0)
		if err != nil {
			if !errors.Is(err, apierr.ErrPlatformInvalid) {
				t.Fatalf("accepted spec fails to instantiate untyped: %v", err)
			}
			return
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
