package runner

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/metrics"
	"heteropart/internal/plan"
	"heteropart/internal/telemetry/flight"
)

// chaosSchedule is the canonical non-terminal schedule the determinism
// matrix injects: a slowdown on the accelerator, jitter everywhere,
// transfer stalls after a warmup, and profiling noise. None of these
// halt the run, so every app×strategy pair completes and can be
// compared byte-for-byte.
func chaosSchedule(seed int64) *fault.Schedule {
	return &fault.Schedule{
		Version: fault.ScheduleVersion,
		Seed:    seed,
		Faults: []fault.Fault{
			{Kind: fault.KindSlowdown, Device: 1, Factor: 1.5},
			{Kind: fault.KindJitter, Device: fault.AnyDevice, Amplitude: 0.05},
			{Kind: fault.KindTransferStall, Device: 1, ExtraNs: 5_000, After: 2},
			{Kind: fault.KindProfileNoise, Device: fault.AnyDevice, Amplitude: 0.02},
		},
	}
}

// chaosMatrix is the full app×strategy matrix at small problem sizes:
// every bundled app paired with every strategy applicable to its
// structure, plus the matchmade ("") variant.
func chaosMatrix(sched *fault.Schedule) []Spec {
	singleApps := []string{"MatrixMul", "BlackScholes", "Nbody", "HotSpot"}
	singleStrats := []string{"", "SP-Single", "DP-Perf", "DP-Dep", "Only-CPU", "Only-GPU"}
	multiApps := []string{"STREAM-Seq", "STREAM-Loop"}
	multiStrats := []string{"", "SP-Unified", "SP-Varied", "DP-Perf", "DP-Dep", "Only-CPU", "Only-GPU"}
	sizes := map[string]int64{
		"MatrixMul": 256, "BlackScholes": 2048, "Nbody": 512,
		"HotSpot": 64, "STREAM-Seq": 2048, "STREAM-Loop": 2048,
	}
	var specs []Spec
	add := func(app string, strats []string) {
		for _, st := range strats {
			specs = append(specs, Spec{
				App: app, Strategy: st, N: sizes[app],
				WithMetrics: true, CollectTrace: true, Fault: sched,
			})
		}
	}
	for _, app := range singleApps {
		add(app, singleStrats)
	}
	for _, app := range multiApps {
		add(app, multiStrats)
	}
	return specs
}

// chaosBundle assembles the run's flight bundle with its wall-clock
// metric series removed, so bundles of the same deterministic run are
// byte-comparable (DESIGN.md §8 documents the wall-clock exception).
func chaosBundle(t *testing.T, spec Spec, res *Result) []byte {
	t.Helper()
	makespan := res.Outcome.Result.Makespan
	snap := res.Metrics.Snapshot(makespan)
	kept := snap.Points[:0]
	for _, p := range snap.Points {
		if !strings.Contains(p.Name, "wall") {
			kept = append(kept, p)
		}
	}
	snap.Points = kept
	b, err := flight.Record(spec.App, res.Outcome.Strategy, spec.Canonical(),
		plan.Fingerprint(spec.platform()), int64(makespan),
		res.Plan, &snap, nil, res.Outcome.Trace.Utilization(makespan))
	if err != nil {
		t.Fatalf("%s: record bundle: %v", spec, err)
	}
	if err := b.AttachFaults(res.Outcome.Faults, res.Outcome.Degradations); err != nil {
		t.Fatalf("%s: attach faults: %v", spec, err)
	}
	enc, err := b.Encode()
	if err != nil {
		t.Fatalf("%s: encode bundle: %v", spec, err)
	}
	return enc
}

// outcomeTable renders the run's observable numbers as one stable
// string — the "outcome table" the determinism contract compares.
func outcomeTable(res *Result) string {
	r := res.Outcome.Result
	return fmt.Sprintf("strategy=%s makespan=%d gpu=%.6f htod=%d dtoh=%d transfers=%d instances=%d decisions=%d",
		res.Outcome.Strategy, int64(r.Makespan), res.Outcome.GPURatio(),
		r.HtoDBytes, r.DtoHBytes, r.TransferCount, r.Instances, r.Decisions)
}

// TestChaosSameSeedDeterminism is the tentpole invariant: an identical
// (spec, seed, FaultSchedule) triple produces byte-identical artifacts
// — outcome table, metrics text minus the documented wall-clock
// series, and the encoded flight bundle — across three independent
// executions of the full app×strategy matrix.
func TestChaosSameSeedDeterminism(t *testing.T) {
	specs := chaosMatrix(chaosSchedule(42))
	type artifact struct {
		table   string
		metrics string
		bundle  []byte
	}
	render := func(round int) []artifact {
		t.Helper()
		r := New(Config{Workers: 4, DisableCache: true})
		results, err := r.RunAll(specs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		arts := make([]artifact, len(results))
		for i, res := range results {
			arts[i] = artifact{
				table:   outcomeTable(res),
				metrics: stripWallClock(res.Metrics.Text(res.Outcome.Result.Makespan)),
				bundle:  chaosBundle(t, specs[i], res),
			}
		}
		return arts
	}
	ref := render(0)
	for round := 1; round < 3; round++ {
		got := render(round)
		for i := range specs {
			if got[i].table != ref[i].table {
				t.Errorf("round %d: %s: outcome table\n  %s\n!=\n  %s",
					round, specs[i], got[i].table, ref[i].table)
			}
			if got[i].metrics != ref[i].metrics {
				t.Errorf("round %d: %s: metrics text differs", round, specs[i])
			}
			if !bytes.Equal(got[i].bundle, ref[i].bundle) {
				t.Errorf("round %d: %s: flight bundle differs", round, specs[i])
			}
		}
	}
}

// TestChaosSeedDiscriminates pins that the seed is live: the same
// schedule under a different seed must perturb at least one run in the
// matrix (jitter draws change), or the determinism test above would
// pass vacuously with injection disconnected.
func TestChaosSeedDiscriminates(t *testing.T) {
	r := New(Config{Workers: 4, DisableCache: true})
	a, err := r.RunAll(chaosMatrix(chaosSchedule(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunAll(chaosMatrix(chaosSchedule(43)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Outcome.Result.Makespan != b[i].Outcome.Result.Makespan {
			return
		}
	}
	t.Error("changing the fault seed left every makespan identical — injection looks disconnected")
}

// TestChaosMonotonicDegradation is the physical-plausibility property:
// slowing every device down can never improve the virtual makespan,
// and more slowdown can never beat less, for any app×strategy pair.
func TestChaosMonotonicDegradation(t *testing.T) {
	factors := []float64{1, 1.5, 3}
	runs := make([][]*Result, len(factors))
	for fi, f := range factors {
		var sched *fault.Schedule
		if f > 1 {
			sched = &fault.Schedule{
				Version: fault.ScheduleVersion,
				Seed:    7,
				Faults: []fault.Fault{
					{Kind: fault.KindSlowdown, Device: fault.AnyDevice, Factor: f},
				},
			}
		}
		r := New(Config{Workers: 4, DisableCache: true})
		results, err := r.RunAll(chaosMatrix(sched))
		if err != nil {
			t.Fatalf("factor %v: %v", f, err)
		}
		runs[fi] = results
	}
	for i := range runs[0] {
		spec := runs[0][i].Spec
		for fi := 1; fi < len(factors); fi++ {
			prev := runs[fi-1][i].Outcome.Result.Makespan
			cur := runs[fi][i].Outcome.Result.Makespan
			if cur < prev {
				t.Errorf("%s: slowdown ×%v makespan %d beats ×%v makespan %d",
					spec, factors[fi], int64(cur), factors[fi-1], int64(prev))
			}
		}
	}
}

// TestChaosCacheIsolation is the cache-identity invariant: a faulted
// spec never aliases its clean twin in either cache, faulted results
// are themselves cacheable (injection is deterministic), and running
// the faulted spec never poisons the clean entry.
func TestChaosCacheIsolation(t *testing.T) {
	clean := Spec{App: "MatrixMul", Strategy: "SP-Single", N: 256, WithMetrics: true}
	faulted := clean
	faulted.Fault = &fault.Schedule{
		Version: fault.ScheduleVersion,
		Seed:    11,
		Faults:  []fault.Fault{{Kind: fault.KindSlowdown, Device: fault.AnyDevice, Factor: 2}},
	}
	if clean.Key() == faulted.Key() {
		t.Fatal("faulted spec shares the clean spec's result-cache key")
	}
	if clean.PlanKey("SP-Single") == faulted.PlanKey("SP-Single") {
		t.Fatal("faulted spec shares the clean spec's plan-cache key")
	}

	reg := metrics.NewRegistry()
	r := New(Config{Workers: 1, Metrics: reg})
	hits := func() float64 {
		for _, p := range reg.Snapshot(0).Points {
			if p.Name == "runner_cache_hits_total" {
				return p.Value
			}
		}
		return 0
	}

	first, err := r.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := r.Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Outcome.Result.Makespan <= first.Outcome.Result.Makespan {
		t.Errorf("×2 slowdown makespan %d did not exceed clean %d",
			int64(fres.Outcome.Result.Makespan), int64(first.Outcome.Result.Makespan))
	}
	if fres.Outcome.Faults == nil {
		t.Error("faulted outcome lost its schedule")
	}
	if first.Outcome.Faults != nil {
		t.Error("clean outcome grew a fault schedule")
	}

	h0 := hits()
	again, err := r.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeTable(again); got != outcomeTable(first) {
		t.Errorf("clean result changed after a faulted run:\n  %s\n!=\n  %s", got, outcomeTable(first))
	}
	fagain, err := r.Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeTable(fagain); got != outcomeTable(fres) {
		t.Errorf("faulted result not reproduced from cache:\n  %s\n!=\n  %s", got, outcomeTable(fres))
	}
	if got := hits(); got != h0+2 {
		t.Errorf("runner_cache_hits_total = %v after re-runs, want %v (both entries cached)", got, h0+2)
	}
}

// TestChaosDeviceLossReplan is the recovery invariant on the paper
// platform (one accelerator): losing the GPU mid-run completes via an
// Only-CPU replan, the executed plan is valid for the degraded
// platform, and the flight bundle carries both the schedule and the
// degradation record.
func TestChaosDeviceLossReplan(t *testing.T) {
	spec := Spec{
		App: "MatrixMul", Strategy: "SP-Single", N: 256,
		WithMetrics: true, CollectTrace: true,
		Fault: &fault.Schedule{
			Version: fault.ScheduleVersion,
			Seed:    3,
			Faults:  []fault.Fault{{Kind: fault.KindDeviceLoss, Device: 1, After: 2}},
		},
	}
	r := New(Config{Workers: 1, DisableCache: true})
	res, err := r.Run(spec)
	if err != nil {
		t.Fatalf("device-loss run did not recover: %v", err)
	}
	degs := res.Outcome.Degradations
	if len(degs) != 1 {
		t.Fatalf("degradations = %+v, want exactly one", degs)
	}
	d := degs[0]
	if d.LostDevice != 1 || d.RemainingAccels != 0 || d.Replanned != "Only-CPU" {
		t.Errorf("degradation = %+v, want lost_device=1 remaining_accels=0 replanned=Only-CPU", d)
	}
	if res.Plan.Strategy != "Only-CPU" {
		t.Errorf("executed plan strategy = %q, want Only-CPU", res.Plan.Strategy)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Errorf("replanned plan invalid: %v", err)
	}
	degraded, err := spec.platform().Without(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.CheckPlatform(degraded); err != nil {
		t.Errorf("replanned plan does not bind to the degraded platform: %v", err)
	}
	if res.Outcome.Result.GPURatio() != 0 {
		t.Errorf("degraded run still computed %v on accelerators", res.Outcome.Result.GPURatio())
	}

	// The bundle must carry the repro artifacts.
	b, err := flight.Record(spec.App, res.Outcome.Strategy, spec.Canonical(),
		plan.Fingerprint(spec.platform()), int64(res.Outcome.Result.Makespan),
		res.Plan, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachFaults(res.Outcome.Faults, res.Outcome.Degradations); err != nil {
		t.Fatal(err)
	}
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := flight.Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Faults) == 0 || len(back.Degradations) != 1 {
		t.Errorf("bundle round-trip lost fault evidence: faults=%d bytes, degradations=%d",
			len(back.Faults), len(back.Degradations))
	}
	if diff := flight.Diff(b, back); len(diff) != 0 {
		t.Errorf("bundle self-diff after round-trip: %v", diff)
	}

	// Recovery itself is deterministic.
	res2, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcomeTable(res2) != outcomeTable(res) {
		t.Errorf("device-loss recovery not deterministic:\n  %s\n!=\n  %s",
			outcomeTable(res2), outcomeTable(res))
	}
}

// TestChaosDeviceLossMultiAccel loses one of two accelerators: the
// original strategy must replan on the survivor (no Only-CPU
// fallback), device IDs renumbering in lockstep.
func TestChaosDeviceLossMultiAccel(t *testing.T) {
	plat, err := device.NewPlatform(device.XeonE5_2620(), 12,
		device.Attachment{Model: device.TeslaK20m(), Link: device.PCIeGen2x16()},
		device.Attachment{Model: device.XeonPhi5110P(), Link: device.PCIeGen3x16()})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		App: "MatrixMul", Strategy: "SP-Single", N: 256, Plat: plat,
		Fault: &fault.Schedule{
			Version: fault.ScheduleVersion,
			Seed:    5,
			Faults:  []fault.Fault{{Kind: fault.KindDeviceLoss, Device: 1, After: 1}},
		},
	}
	r := New(Config{Workers: 1, DisableCache: true})
	res, err := r.Run(spec)
	if err != nil {
		t.Fatalf("two-accel device-loss run did not recover: %v", err)
	}
	degs := res.Outcome.Degradations
	if len(degs) != 1 {
		t.Fatalf("degradations = %+v, want exactly one", degs)
	}
	if d := degs[0]; d.LostDevice != 1 || d.RemainingAccels != 1 || d.Replanned != "SP-Single" {
		t.Errorf("degradation = %+v, want lost_device=1 remaining_accels=1 replanned=SP-Single", d)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Errorf("replanned plan invalid: %v", err)
	}
	surv, err := plat.Without(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.CheckPlatform(surv); err != nil {
		t.Errorf("replanned plan does not bind to the surviving platform: %v", err)
	}
}

// TestChaosDeviceLossRenumbersCalibration loses the K20m of a
// calibrated tri-asym-p2p whose scales price it 10× and the rest 1×.
// The recovered plan must carry the survivors' own scales, renumbered
// with their devices: the Xeon Phi, now device 1, keeps its factor 1
// instead of inheriting the lost device's 10.
func TestChaosDeviceLossRenumbersCalibration(t *testing.T) {
	calibrated := func(accels []device.AccelSpec, p2p []device.P2PSpec, factors ...float64) *device.Platform {
		t.Helper()
		s := &device.Spec{Version: device.SpecVersion, Name: "calibrated",
			Host: device.HostSpec{Model: "xeon-e5-2620"}, Accels: accels, P2P: p2p,
			Cost: &device.CostSpec{Model: "calibrated"}}
		for id, f := range factors {
			s.Cost.Scales = append(s.Cost.Scales, device.Scale{Kernel: "black_scholes", Device: id, Factor: f})
		}
		plat, err := s.ToPlatform(0)
		if err != nil {
			t.Fatal(err)
		}
		return plat
	}
	tri, err := device.SpecByName("tri-asym-p2p")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		App: "BlackScholes", Strategy: "SP-Single", N: 4194304,
		Plat: calibrated(tri.Accels, tri.P2P, 1, 10, 1),
		Fault: &fault.Schedule{
			Version: fault.ScheduleVersion,
			Faults:  []fault.Fault{{Kind: fault.KindDeviceLoss, Device: 1, After: 1}},
		},
	}
	res, err := New(Config{Workers: 1, DisableCache: true}).Run(spec)
	if err != nil {
		t.Fatalf("calibrated device-loss run did not recover: %v", err)
	}
	if want := plan.Fingerprint(calibrated(tri.Accels[1:], nil, 1, 1)); res.Plan.Platform != want {
		t.Errorf("recovered plan platform = %q, want %q", res.Plan.Platform, want)
	}
	r := res.Outcome.Result
	if got := fmt.Sprintf("%.3f ms, %.1f%%", r.Makespan.Milliseconds(), 100*r.GPURatio()); got != "6.792 ms, 67.4%" {
		t.Errorf("recovered run = %s, want 6.792 ms, 67.4%%", got)
	}
}

// TestChaosDeviceLossComputeVerifies runs a compute-mode device-loss
// spec: the degraded rerun must still produce numerically correct
// results against the sequential reference.
func TestChaosDeviceLossComputeVerifies(t *testing.T) {
	spec := Spec{
		App: "MatrixMul", Strategy: "SP-Single", N: 48, Compute: true,
		Fault: &fault.Schedule{
			Version: fault.ScheduleVersion,
			Seed:    9,
			Faults:  []fault.Fault{{Kind: fault.KindDeviceLoss, Device: 1, After: 1}},
		},
	}
	r := New(Config{Workers: 1, DisableCache: true})
	res, err := r.Run(spec)
	if err != nil {
		t.Fatalf("compute-mode device-loss run did not recover: %v", err)
	}
	if len(res.Outcome.Degradations) != 1 {
		t.Fatalf("degradations = %+v, want exactly one", res.Outcome.Degradations)
	}
	if res.Verify == nil {
		t.Fatal("compute-mode run returned no Verify")
	}
	if err := res.Verify(); err != nil {
		t.Errorf("degraded compute run produced wrong results: %v", err)
	}
}

// TestChaosTerminalFaultIsTyped pins the error taxonomy at the runner
// boundary: an unrecoverable injected crash surfaces as a typed
// ErrFaultInjected chain, never a success and never a panic.
func TestChaosTerminalFaultIsTyped(t *testing.T) {
	spec := Spec{
		App: "MatrixMul", Strategy: "SP-Single", N: 256,
		Fault: &fault.Schedule{
			Version: fault.ScheduleVersion,
			Seed:    13,
			Faults:  []fault.Fault{{Kind: fault.KindChunkCrash, After: 1}},
		},
	}
	r := New(Config{Workers: 1})
	_, err := r.Run(spec)
	if err == nil {
		t.Fatal("injected crash reported success")
	}
	var ce *fault.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("crash error %v is not a *fault.CrashError", err)
	}
	if !errors.Is(err, apierr.ErrFaultInjected) {
		t.Errorf("crash error %v does not match ErrFaultInjected", err)
	}
}
