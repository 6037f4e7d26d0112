package strategy

import (
	"context"
	"errors"
	"fmt"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/plan"
	"heteropart/internal/telemetry"
)

// ExecuteRecover is ExecuteContext with a bounded device-loss recovery
// policy: when an injected fault removes a device mid-run (an error
// wrapping apierr.ErrDeviceLost), the failed attempt is discarded, the
// lost accelerator is dropped from the platform and from the fault
// schedule (surviving device IDs renumber in lockstep), the problem is
// rebuilt for the smaller platform via rebuild, and the same strategy
// re-plans and re-executes on the survivors — falling back to Only-CPU
// when the strategy cannot plan without the lost device. Every
// survived loss is recorded as a fault.Degradation on the outcome, so
// flight bundles carry the full degradation history.
//
// The retry budget is one replan per accelerator of the original
// platform: recovery is bounded, never a loop. Non-loss failures
// (crashes, transfer failures, cancellation) are returned immediately
// — only losing a device has a principled recovery (run on what's
// left); everything else is a terminal, typed outcome.
//
// A nil rebuild disables recovery: the first device loss fails the
// run, which is how a caller's plan is replayed without replanning.
//
// It returns a Recovery: the outcome together with the plan that
// actually executed and the problem it computed (the originals when no
// loss fired), so callers can verify, record and replay the degraded
// run faithfully.
func ExecuteRecover(ctx context.Context, pl *plan.ExecutionPlan, p *apps.Problem, plat *device.Platform, opts Options,
	rebuild func(*device.Platform) (*apps.Problem, error)) (*Recovery, error) {
	original := opts.Faults
	budget := len(plat.Accels)
	if rebuild == nil {
		budget = 0
	}
	var degs []fault.Degradation
	for attempt := 0; ; attempt++ {
		out, err := ExecuteContext(ctx, pl, p, plat, opts)
		if err == nil {
			out.Faults = original
			out.Degradations = degs
			return &Recovery{Outcome: out, Plan: pl, Problem: p}, nil
		}
		var dl *fault.DeviceLostError
		if !errors.As(err, &dl) || attempt >= budget {
			return nil, err
		}

		surv, werr := plat.Without(dl.Device)
		if werr != nil {
			return nil, fmt.Errorf("strategy: recovering from %v: %w", err, werr)
		}
		opts.Faults = opts.Faults.WithoutDevice(dl.Device)
		p2, rerr := rebuild(surv)
		if rerr != nil {
			return nil, fmt.Errorf("strategy: rebuilding problem after %v: %w", err, rerr)
		}

		newPl, replanned, perr := replan(pl.Strategy, p2, surv, opts)
		if perr != nil {
			return nil, fmt.Errorf("strategy: replanning after %v: %w", err, perr)
		}
		degs = append(degs, fault.Degradation{
			LostDevice:      dl.Device,
			AtNs:            dl.AtNs,
			Attempt:         attempt,
			RemainingAccels: len(surv.Accels),
			Replanned:       replanned,
		})
		pl, p, plat = newPl, p2, surv
	}
}

// Recovery is ExecuteRecover's full return: the artifacts of the
// attempt that completed, which after a device loss differ from the
// ones the caller passed in.
type Recovery struct {
	Outcome *Outcome
	// Plan is the plan that actually executed — the replanned one when
	// a loss fired.
	Plan *plan.ExecutionPlan
	// Problem is the problem build the run computed; its Verify checks
	// the surviving run's results.
	Problem *apps.Problem
}

// replan re-decides for the degraded platform: the original strategy
// when it can still plan (and the platform still has an accelerator),
// Only-CPU otherwise. Returns the plan and the name of the strategy
// that produced it.
func replan(name string, p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, string, error) {
	span := opts.Spans.Begin(opts.SpanParent, telemetry.KindPlan, "replan "+name)
	defer opts.Spans.End(span)
	planOpts := opts
	if span != 0 {
		planOpts.SpanParent = span
	}
	if len(plat.Accels) > 0 {
		s, err := ByName(name)
		if err == nil {
			if pl, perr := s.Plan(p, plat, planOpts); perr == nil {
				return pl, s.Name(), nil
			}
			// The strategy cannot plan on what's left (e.g. Only-GPU
			// with its device gone); degrade to the host.
		}
	}
	pl, err := OnlyCPU{}.Plan(p, plat, planOpts)
	if err != nil {
		return nil, "", err
	}
	return pl, OnlyCPU{}.Name(), nil
}
