package calib

import (
	"context"
	"fmt"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/plan"
	"heteropart/internal/runner"
	"heteropart/internal/strategy"
	"heteropart/internal/telemetry"
)

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
	// Chunks and NoSeed are forwarded to the per-round runs.
	Chunks int
	NoSeed bool
	// MaxRounds bounds the loop. Default 3.
	MaxRounds int
	// DeltaPct is the convergence criterion: the loop stops early once
	// a round's measured makespan is within DeltaPct percent of the
	// previous round's. Default 1.
	DeltaPct float64
	// Fit tunes the per-round fit.
	Fit FitConfig
	// Metrics, when non-nil, receives the calib_* instruments.
	Metrics *metrics.Registry
	// Spans, when non-nil, receives one KindRun span per round carrying
	// the round's virtual makespan.
	Spans *telemetry.Tracer
}

func (c Config) defaults() Config {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 3
	}
	if c.DeltaPct <= 0 {
		c.DeltaPct = 1
	}
	return c
}

// Converge runs the iterate-replan-measure loop (DESIGN.md §14): each
// round decides a plan on the *believed* platform (the possibly-wrong
// cost model), executes it on the *truth* platform (the simulator
// standing in for the real machine), fits correction factors from the
// observed chunk times, and folds them into the believed model for the
// next round. The loop stops when the measured makespan settles within
// cfg.DeltaPct percent or cfg.MaxRounds is reached, then decides one
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
	if got := truth.Uncalibrated().Fingerprint(); got != baseFP {
		return nil, nil, nil, fmt.Errorf("calib: %w: believed platform %q, truth %q",
			apierr.ErrCalibrationStale, baseFP, got)
	}
	kernels, err := kernelsOf(cfg.App, cfg.N, cfg.Iters, cfg.Sync, base)
	if err != nil {
		return nil, nil, nil, err
	}
	var current []device.Scale
	if cal, ok := believed.Cost.(*device.Calibrated); ok {
		current = append(current, cal.Scales...)
	}

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
		out := res.Outcome
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
		fitted, entries, err := Fit(obs, kernels, base, cfg.Fit)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("calib: round %d: %w", r, err)
		}
		current = device.MergeScales(current, fitted)
		believed = base.WithCost(&device.Calibrated{Base: base.Cost, Scales: current})

		mk := int64(out.Result.Makespan)
		round := Round{
			Round: r, Samples: n, MeanAbsRelErr: meanErr,
			MakespanNs: mk, Fitted: entries,
		}
		if prevPlan != nil {
			round.PlanDiff = plan.Diff(prevPlan, pl)
		}
		rounds = append(rounds, round)
		record(cfg, round, len(current), out)

		if prevMk > 0 {
			delta := float64(mk-prevMk) / float64(prevMk) * 100
			if delta < 0 {
				delta = -delta
			}
			if delta <= cfg.DeltaPct {
				prevPlan, prevMk = pl, mk
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
		Plat: plat, Chunks: c.Chunks, NoSeed: c.NoSeed,
	}
}

// record publishes one round's evidence to the configured metrics
// registry and span tracer.
func record(cfg Config, round Round, scales int, out *strategy.Outcome) {
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("calib_rounds_total",
			"calibration rounds executed").Inc()
		cfg.Metrics.Gauge("calib_mean_abs_rel_err_pct",
			"mean |actual-predicted|/predicted of the last round, percent").Set(round.MeanAbsRelErr * 100)
		cfg.Metrics.Gauge("calib_samples",
			"chunk observations in the last calibration round").SetInt(int64(round.Samples))
		cfg.Metrics.Gauge("calib_makespan_ns",
			"measured makespan of the last calibration round").SetInt(round.MakespanNs)
		cfg.Metrics.Gauge("calib_scales",
			"fitted correction factors currently applied").SetInt(int64(scales))
	}
	if cfg.Spans != nil {
		id := cfg.Spans.Begin(0, telemetry.KindRun, fmt.Sprintf("calib round %d", round.Round))
		cfg.Spans.Annotate(id, "samples", fmt.Sprintf("%d", round.Samples))
		cfg.Spans.Virtual(id, 0, out.Result.Makespan)
		cfg.Spans.End(id)
	}
}
