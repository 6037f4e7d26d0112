package calib

import (
	"fmt"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/plan"
	"heteropart/internal/telemetry/flight"
)

// Calibrate fits a CalibrationReport from recorded flight bundles: the
// single-shot (record → fit) half of the loop, for when the evidence
// already exists on disk. Every bundle must have been recorded on the
// given platform — a bundle whose fingerprint names another machine
// wraps apierr.ErrCalibrationStale — and must embed its resolved plan
// (for the problem dimensions) and span tree (for the chunk
// observations). Observations from all bundles are fitted jointly;
// per-bundle evidence is recorded as one Round each, with the joint
// fit attached to the last.
func Calibrate(bundles []*flight.Bundle, plat *device.Platform) (*Report, error) {
	if len(bundles) == 0 {
		return nil, fmt.Errorf("calib: no bundles to fit from")
	}
	base := plat.Uncalibrated()
	baseFP := base.Fingerprint()
	var samples []ratioSample
	var rounds []Round
	appName := ""
	for i, b := range bundles {
		if b == nil {
			return nil, fmt.Errorf("calib: bundle %d is nil", i)
		}
		if got := BaseFingerprint(b.Platform); got != baseFP {
			return nil, fmt.Errorf("calib: %w: bundle %d recorded on %q, fitting for %q",
				apierr.ErrCalibrationStale, i, got, baseFP)
		}
		if len(b.Plan) == 0 {
			return nil, fmt.Errorf("calib: bundle %d has no plan (record through a planning run)", i)
		}
		pl, err := plan.FromJSON(b.Plan)
		if err != nil {
			return nil, fmt.Errorf("calib: bundle %d: %w", i, err)
		}
		if appName == "" {
			appName = pl.App
		}
		obs, err := ObservationsFromBundle(b)
		if err != nil {
			return nil, fmt.Errorf("calib: bundle %d: %w", i, err)
		}
		kernels, err := kernelsOf(pl.App, pl.N, pl.Iters, apps.SyncDefault, base)
		if err != nil {
			return nil, fmt.Errorf("calib: bundle %d: %w", i, err)
		}
		meanErr, n, err := MeanAbsRelErr(obs, kernels, plat)
		if err != nil {
			return nil, fmt.Errorf("calib: bundle %d: %w", i, err)
		}
		s, err := ratioSamples(obs, kernels, base)
		if err != nil {
			return nil, fmt.Errorf("calib: bundle %d: %w", i, err)
		}
		samples = append(samples, s...)
		rounds = append(rounds, Round{
			Round: i + 1, Samples: n, MeanAbsRelErr: meanErr, MakespanNs: b.MakespanNs,
		})
	}
	scales, entries, err := fitRatios(samples)
	if err != nil {
		return nil, err
	}
	rounds[len(rounds)-1].Fitted = entries
	return &Report{
		Version: ReportVersion, App: appName, Platform: baseFP,
		Scales: scales, Rounds: rounds,
	}, nil
}
