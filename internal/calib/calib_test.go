package calib

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/strategy"
	"heteropart/internal/telemetry"
	"heteropart/internal/telemetry/flight"
)

// perturbed returns the acceptance-criterion pair: a truth platform
// whose real rates differ from the analytic model by >= 20% (device 1
// runs 1.6x the roofline prediction, device 0 runs 1.25x) and the
// believed platform that still trusts the uncorrected model.
func perturbed() (truth, believed *device.Platform) {
	base := device.PaperPlatform(0)
	truth = base.WithScales([]device.Scale{
		{Device: 1, Factor: 1.6},
		{Device: 0, Factor: 1.25},
	})
	return truth, truth.Uncalibrated()
}

func TestParseRange(t *testing.T) {
	lo, hi, err := parseRange("black_scholes#3[1024,2048)")
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1024 || hi != 2048 {
		t.Fatalf("parseRange = [%d,%d), want [1024,2048)", lo, hi)
	}
	for _, bad := range []string{"nope", "k#1[5)", "k#1[a,b)", "k#1[5,6]"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

func TestObservationsFromSpans(t *testing.T) {
	tr := telemetry.New()
	id := tr.Emit(0, telemetry.KindChunk, "k#0[0,512)", 100, 600)
	tr.Annotate(id, "dev", "1")
	tr.Annotate(id, "kernel", "k")
	// Non-chunk and degenerate spans must be ignored, not errors.
	tr.Emit(0, telemetry.KindExecute, "whatever", 0, 1)
	zero := tr.Emit(0, telemetry.KindChunk, "k#1[512,512)", 600, 700)
	tr.Annotate(zero, "dev", "0")
	tr.Annotate(zero, "kernel", "k")

	obs, err := ObservationsFromSpans(tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("got %d observations, want 1", len(obs))
	}
	want := Observation{Kernel: "k", Device: 1, Lo: 0, Hi: 512, ActualNs: 500}
	if obs[0] != want {
		t.Fatalf("observation = %+v, want %+v", obs[0], want)
	}

	// A chunk span missing its attributes is a schema break, not noise.
	bad := telemetry.New()
	bad.Emit(0, telemetry.KindChunk, "k#0[0,8)", 0, 10)
	if _, err := ObservationsFromSpans(bad.Spans()); err == nil {
		t.Fatal("chunk span without kernel/dev attrs accepted")
	}
}

func TestMedianAndFitRatios(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %g, want 2.5", m)
	}

	samples := []ratioSample{
		{kernel: "k", dev: 0, ratio: 1.2},
		{kernel: "k", dev: 0, ratio: 1.3},
		{kernel: "k", dev: 0, ratio: 1.4},
		{kernel: "k", dev: 1, ratio: 1.6},
	}
	scales, entries, err := fitRatios(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) != 2 || len(entries) != 2 {
		t.Fatalf("fit produced %d scales / %d entries, want 2 / 2", len(scales), len(entries))
	}
	if scales[0] != (device.Scale{Kernel: "k", Device: 0, Factor: 1.3}) {
		t.Fatalf("scale[0] = %+v", scales[0])
	}
	if scales[1] != (device.Scale{Kernel: "k", Device: 1, Factor: 1.6}) {
		t.Fatalf("scale[1] = %+v", scales[1])
	}
	if entries[0].Samples != 3 || entries[1].Samples != 1 {
		t.Fatalf("entry samples = %d / %d, want 3 / 1", entries[0].Samples, entries[1].Samples)
	}

	if _, _, err := fitRatios(nil); err == nil {
		t.Fatal("fit with no group succeeded")
	}
}

// TestConvergeReducesError is the acceptance criterion: on a platform
// whose real rates are perturbed >= 20% from the analytic model,
// three rounds of calibrate-replan must cut the mean plan-predicted vs
// simulated chunk-time error at least 5x.
func TestConvergeReducesError(t *testing.T) {
	truth, believed := perturbed()
	cfg := Config{App: "BlackScholes", Strategy: "SP-Single", N: 16384, MaxRounds: 3}
	report, final, calibrated, err := Converge(cfg, truth, believed)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) < 2 {
		t.Fatalf("converge ran %d rounds, want >= 2", len(report.Rounds))
	}
	first := report.Rounds[0].MeanAbsRelErr
	last := report.Rounds[len(report.Rounds)-1].MeanAbsRelErr
	if first < 0.2 {
		t.Fatalf("first-round error %.4f < 0.20: perturbation not visible", first)
	}
	if last*5 > first {
		t.Fatalf("error reduced %.4f -> %.4f, less than 5x", first, last)
	}

	// The fitted factors must recover the injected perturbation. The
	// GPU runs chunks dedicated, so its factor is the injected 1.6
	// nearly exactly; the host factor folds the injected 1.25 together
	// with the processor-sharing contention above the per-thread
	// steady state, so it must come out at least that large.
	seen := map[int]bool{}
	for _, s := range report.Scales {
		switch s.Device {
		case 1:
			if math.Abs(s.Factor-1.6)/1.6 > 0.10 {
				t.Errorf("device 1 factor = %.4f, want 1.6 within 10%%", s.Factor)
			}
		case 0:
			if s.Factor < 1.25 || s.Factor > 3 {
				t.Errorf("device 0 factor = %.4f, want within [1.25, 3]", s.Factor)
			}
		default:
			t.Fatalf("fit produced scale for unexpected device %d", s.Device)
		}
		seen[s.Device] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("fit missed a device: scales = %+v", report.Scales)
	}

	if final == nil || final.App != "BlackScholes" {
		t.Fatalf("final plan = %+v", final)
	}
	if calibrated.Uncalibrated().Fingerprint() != believed.Fingerprint() {
		t.Fatal("calibrated platform drifted from the believed base")
	}
	if len(calibrated.Scales) != len(report.Scales) {
		t.Fatalf("calibrated platform has %d scales, want the report's %d", len(calibrated.Scales), len(report.Scales))
	}
}

// TestConvergeDeterministic pins byte-determinism: the same inputs
// must produce a byte-identical report and final plan.
func TestConvergeDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		truth, believed := perturbed()
		cfg := Config{App: "BlackScholes", Strategy: "SP-Single", N: 16384, MaxRounds: 3}
		report, final, _, err := Converge(cfg, truth, believed)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		pj, err := final.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rj, pj
	}
	r1, p1 := run()
	r2, p2 := run()
	if !bytes.Equal(r1, r2) {
		t.Fatal("two identical Converge runs produced different reports")
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("two identical Converge runs produced different final plans")
	}

	// And the report survives its own serialization.
	rt, err := FromJSON(r1)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := rt.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, r1) {
		t.Fatal("FromJSON . JSON is not the identity")
	}
}

func TestConvergeAnalyzerPicksStrategy(t *testing.T) {
	truth, believed := perturbed()
	cfg := Config{App: "BlackScholes", N: 8192, MaxRounds: 2}
	report, final, _, err := Converge(cfg, truth, believed)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) == 0 || final.Strategy == "" {
		t.Fatalf("analyzer-selected converge: rounds=%d strategy=%q", len(report.Rounds), final.Strategy)
	}
}

func TestConvergeStaleness(t *testing.T) {
	truth, _ := perturbed()
	other := device.PaperPlatform(4) // different thread count => different base
	_, _, _, err := Converge(Config{App: "BlackScholes", N: 4096}, truth, other)
	if !errors.Is(err, apierr.ErrCalibrationStale) {
		t.Fatalf("converge across machines = %v, want ErrCalibrationStale", err)
	}
}

func TestApplyStaleness(t *testing.T) {
	truth, believed := perturbed()
	report, _, _, err := Converge(Config{App: "BlackScholes", Strategy: "SP-Single", N: 8192, MaxRounds: 1}, truth, believed)
	if err != nil {
		t.Fatal(err)
	}

	applied, err := report.Apply(believed)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied.Scales) != len(report.Scales) {
		t.Fatalf("applied platform has %d scales, want the report's %d", len(applied.Scales), len(report.Scales))
	}
	// Applying to an already-calibrated platform replaces, never stacks.
	again, err := report.Apply(applied)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != applied.Fingerprint() {
		t.Fatal("re-applying a report changed the platform")
	}

	other := device.PaperPlatform(4)
	if _, err := report.Apply(other); !errors.Is(err, apierr.ErrCalibrationStale) {
		t.Fatalf("apply across machines = %v, want ErrCalibrationStale", err)
	}
}

// TestCalibrateFromBundle covers the record -> fit path: a run recorded
// into a flight bundle on the truth platform yields a report that,
// applied to the believed model, cuts the prediction error.
func TestCalibrateFromBundle(t *testing.T) {
	truth, believed := perturbed()

	app, err := apps.ByName("BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	problem, err := app.Build(apps.Variant{N: 16384, Spaces: 1 + len(truth.Accels)})
	if err != nil {
		t.Fatal(err)
	}
	strat, err := strategy.ByName("SP-Single")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := strat.Plan(problem, truth, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New()
	out, err := strategy.Execute(pl, problem, truth, strategy.Options{Spans: tr})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := flight.Record("BlackScholes", "SP-Single", "spec", truth.Fingerprint(),
		int64(out.Result.Makespan), pl, nil, tr, nil)
	if err != nil {
		t.Fatal(err)
	}

	report, err := Calibrate([]*flight.Bundle{bundle}, believed)
	if err != nil {
		t.Fatal(err)
	}
	if report.Platform != believed.Fingerprint() {
		t.Fatalf("report platform = %q, want believed base %q", report.Platform, believed.Fingerprint())
	}
	if len(report.Rounds) != 1 || report.Rounds[0].Samples == 0 {
		t.Fatalf("rounds = %+v", report.Rounds)
	}

	calibrated, err := report.Apply(believed)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := ObservationsFromBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := kernelsOf("BlackScholes", 16384, 0, apps.SyncDefault, believed)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := MeanAbsRelErr(obs, kernels, believed)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := MeanAbsRelErr(obs, kernels, calibrated)
	if err != nil {
		t.Fatal(err)
	}
	if after*5 > before {
		t.Fatalf("bundle fit reduced error %.4f -> %.4f, less than 5x", before, after)
	}

	// A bundle recorded on another machine is refused.
	foreign := *bundle
	foreign.Platform = device.PaperPlatform(4).Fingerprint()
	if _, err := Calibrate([]*flight.Bundle{&foreign}, believed); !errors.Is(err, apierr.ErrCalibrationStale) {
		t.Fatalf("foreign bundle = %v, want ErrCalibrationStale", err)
	}
	// A bundle recorded without spans carries no evidence.
	mute := *bundle
	mute.Spans = nil
	if _, err := Calibrate([]*flight.Bundle{&mute}, believed); err == nil {
		t.Fatal("span-less bundle accepted")
	}
}

func TestReportValidate(t *testing.T) {
	good := &Report{Version: ReportVersion, App: "a", Platform: "fp",
		Scales: []device.Scale{{Device: 0, Factor: 1.5}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Report{
		nil,
		{Version: 99, Platform: "fp", Scales: good.Scales},
		{Version: ReportVersion, Scales: good.Scales},
		{Version: ReportVersion, Platform: "fp"},
		{Version: ReportVersion, Platform: "fp", Scales: []device.Scale{{Device: 0, Factor: 0}}},
		{Version: ReportVersion, Platform: "fp", Scales: []device.Scale{{Device: -2, Factor: 1}}},
		{Version: ReportVersion, Platform: "fp", Scales: []device.Scale{{Device: 1, Factor: 2}, {Device: 1, Factor: 3}}},
	}
	for i, r := range cases {
		if err := r.Validate(); !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("case %d: Validate = %v, want ErrPlatformInvalid", i, err)
		}
	}
	for _, raw := range []string{``, `{`, `[]`, `{"version":"1"}`} {
		if _, err := FromJSON([]byte(raw)); !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("FromJSON(%q) = %v, want ErrPlatformInvalid", raw, err)
		}
	}
}

// TestReportFactorBounds walks both sides of the factor bounds a
// report shares with platform specs: inside, the report validates and
// round-trips; outside, both Validate and FromJSON refuse it with
// ErrPlatformInvalid, so a hostile report never reaches a platform.
func TestReportFactorBounds(t *testing.T) {
	cases := []struct {
		factor float64
		ok     bool
	}{
		{device.MinScaleFactor, true},
		{device.MinScaleFactor * (1 - 1e-9), false},
		{device.MaxScaleFactor, true},
		{device.MaxScaleFactor * (1 + 1e-9), false},
		{1e-300, false},
		{1e300, false},
		{math.Inf(1), false},
		{math.NaN(), false},
		{-1, false},
	}
	for _, c := range cases {
		r := &Report{Version: ReportVersion, App: "BlackScholes", Platform: "fp",
			Scales: []device.Scale{{Device: 0, Factor: 1.5}, {Device: 1, Factor: c.factor}}}
		err := r.Validate()
		if c.ok {
			if err != nil {
				t.Errorf("factor %g: %v", c.factor, err)
			} else if b, err := r.JSON(); err != nil {
				t.Errorf("factor %g: encode: %v", c.factor, err)
			} else if _, err := FromJSON(b); err != nil {
				t.Errorf("factor %g: decode: %v", c.factor, err)
			}
			continue
		}
		if !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("factor %g: Validate = %v, want ErrPlatformInvalid", c.factor, err)
		}
		if math.IsInf(c.factor, 0) || math.IsNaN(c.factor) {
			continue // JSON has no literal for these
		}
		raw := fmt.Sprintf(`{"version":1,"app":"BlackScholes","platform":"fp","scales":[{"device":1,"factor":%g}]}`, c.factor)
		if _, err := FromJSON([]byte(raw)); !errors.Is(err, apierr.ErrPlatformInvalid) {
			t.Errorf("factor %g: FromJSON = %v, want ErrPlatformInvalid", c.factor, err)
		}
	}
}

func TestBaseFingerprint(t *testing.T) {
	truth, believed := perturbed()
	if got := BaseFingerprint(truth.Fingerprint()); got != believed.Fingerprint() {
		t.Fatalf("BaseFingerprint = %q, want %q", got, believed.Fingerprint())
	}
	if got := BaseFingerprint(believed.Fingerprint()); got != believed.Fingerprint() {
		t.Fatalf("BaseFingerprint on a base fingerprint = %q, changed it", got)
	}
}

// TestRoundsRecordPlanDiffs checks that from the second round on, a
// changed decision shows up in the round's PlanDiff. With a 1.6x
// slower GPU the calibrated model must shift work toward the CPU, so
// the round-2 plan differs from round 1's. Round 1 has no previous
// makespan to settle against, so at least two rounds run.
func TestRoundsRecordPlanDiffs(t *testing.T) {
	truth, believed := perturbed()
	cfg := Config{App: "BlackScholes", Strategy: "SP-Single", N: 16384, MaxRounds: 3}
	report, _, _, err := Converge(cfg, truth, believed)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) < 2 {
		t.Fatalf("only %d rounds ran", len(report.Rounds))
	}
	if len(report.Rounds[0].PlanDiff) != 0 {
		t.Fatalf("round 1 has a plan diff: %v", report.Rounds[0].PlanDiff)
	}
	if len(report.Rounds[1].PlanDiff) == 0 {
		t.Fatal("round 2 plan identical to round 1 despite a 60% GPU misprediction")
	}
}
