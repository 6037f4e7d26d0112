package calib

import (
	"context"
	"fmt"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/plan"
	"heteropart/internal/runner"
	"heteropart/internal/telemetry"
)

// deltaPct is the convergence criterion: the loop stops early once a
// round's measured makespan is within deltaPct percent of the previous
// round's.
const deltaPct = 1

// Config drives one Converge loop.
type Config struct {
	// App names the application to calibrate with.
	App string
	// Strategy pins the partitioning strategy; empty lets the analyzer
	// pick the Table-I best for the app's class each round.
	Strategy string
	// Sync, N and Iters are the problem variant (apps.Variant).
	Sync  apps.SyncMode
	N     int64
	Iters int
	// Chunks is forwarded to the per-round runs.
	Chunks int
	// MaxRounds bounds the loop. Default 3.
	MaxRounds int
}

func (c Config) defaults() Config {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 3
	}
	return c
}

// Converge runs the iterate-replan-measure loop (DESIGN.md §14): each
// round decides a plan on the *believed* platform (the possibly-wrong
// cost model), executes it on the *truth* platform (the simulator
// standing in for the real machine), fits correction factors from the
// observed chunk times, and folds them into the believed model for the
// next round. The loop stops when the measured makespan settles within
// deltaPct percent or cfg.MaxRounds is reached, then decides one
// final plan on the converged model.
//
// It returns the calibration report (one Round of evidence per
// iteration, with plan diffs from the second round on), the final
// plan, and the calibrated believed platform. Truth and believed must
// describe the same machine up to calibration; a base-fingerprint
// mismatch wraps apierr.ErrCalibrationStale.
//
// Everything is deterministic: the same cfg and platforms produce a
// byte-identical report and final plan.
func Converge(cfg Config, truth, believed *device.Platform) (*Report, *plan.ExecutionPlan, *device.Platform, error) {
	cfg = cfg.defaults()
	if truth == nil || believed == nil {
		return nil, nil, nil, fmt.Errorf("calib: converge needs both truth and believed platforms")
	}
	base := believed.Uncalibrated()
	baseFP := base.Fingerprint()
	if err := checkSameBase(baseFP, truth); err != nil {
		return nil, nil, nil, err
	}
	kernels, err := kernelsOf(cfg.App, cfg.N, cfg.Iters, cfg.Sync, base)
	if err != nil {
		return nil, nil, nil, err
	}
	// MergeScales returns a new slice, so current never aliases a
	// platform's scales when it changes.
	current := believed.Scales

	var (
		rounds   []Round
		prevPlan *plan.ExecutionPlan
		prevMk   int64
	)
	ctx := context.Background()
	decider := runner.New(runner.Config{})
	for r := 1; r <= cfg.MaxRounds; r++ {
		pl, _, err := decider.PlanContext(ctx, cfg.spec(believed))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calib: round %d: %w", r, err)
		}
		// The plan was decided on the believed model, so it carries the
		// believed fingerprint; rebind it to truth before executing there
		// (same machine, different cost beliefs — the partition decisions
		// are exactly what calibration is measuring).
		patched := *pl
		patched.Platform = plan.Fingerprint(truth)
		// The measurement records into a private tracer: its chunk
		// spans are the round's observations.
		private := telemetry.New()
		res, err := runner.New(runner.Config{Spans: private}).ExecuteContext(ctx, cfg.spec(truth), &patched)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calib: round %d: %w", r, err)
		}
		obs, err := ObservationsFromSpans(private.Spans())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calib: round %d: %w", r, err)
		}
		if len(obs) == 0 {
			return nil, nil, nil, fmt.Errorf("calib: round %d produced no chunk observations", r)
		}
		// Error is priced against the model the round's plan believed in
		// — the misprediction this round's fit then corrects.
		meanErr, n, err := MeanAbsRelErr(obs, kernels, believed)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calib: round %d: %w", r, err)
		}
		fitted, entries, err := Fit(obs, kernels, base)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calib: round %d: %w", r, err)
		}
		current = device.MergeScales(current, fitted)
		believed = base.WithScales(current)

		mk := int64(res.Outcome.Result.Makespan)
		round := Round{
			Round: r, Samples: n, MeanAbsRelErr: meanErr,
			MakespanNs: mk, Fitted: entries,
		}
		if prevPlan != nil {
			round.PlanDiff = plan.Diff(prevPlan, pl)
		}
		rounds = append(rounds, round)

		if prevMk > 0 {
			delta := float64(mk-prevMk) / float64(prevMk) * 100
			if delta < 0 {
				delta = -delta
			}
			if delta <= deltaPct {
				break
			}
		}
		prevPlan, prevMk = pl, mk
	}

	// Decide once more on the converged model: the plan the calibrated
	// stack would ship.
	final, _, err := decider.PlanContext(ctx, cfg.spec(believed))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("calib: final plan: %w", err)
	}
	report := &Report{
		Version: ReportVersion, App: cfg.App, Platform: baseFP,
		Scales: append([]device.Scale(nil), current...), Rounds: rounds,
	}
	if err := report.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return report, final, believed, nil
}

// spec is the runner spec of one decision or measurement on plat: the
// configured problem variant under the configured (or, when empty,
// analyzer-selected) strategy.
func (c Config) spec(plat *device.Platform) runner.Spec {
	return runner.Spec{
		App: c.App, Strategy: c.Strategy, Sync: c.Sync, N: c.N, Iters: c.Iters,
		Plat: plat, Chunks: c.Chunks,
	}
}
