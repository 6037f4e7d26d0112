// Package apierr defines the typed sentinel errors of the public API
// boundary. Internal packages wrap them with %w at the point the
// condition originates, so errors.Is works through every layer —
// facade, runner, strategy, runtime — and the HTTP service can map
// them to status codes without string matching.
//
// The sentinels live here, below every other internal package, because
// the facade re-exports them while the origins (apps, strategy, plan,
// rt) sit underneath the facade: a shared leaf package is the only
// cycle-free home.
package apierr

import (
	"context"
	"errors"
)

// Sentinels, re-exported by the heteropart facade. The messages are
// substrings of the errors wrapping them, so wrapping sites read
// naturally ("apps: unknown application \"Foo\"").
var (
	// ErrUnknownApp reports an application name absent from the
	// registry (apps.ByName).
	ErrUnknownApp = errors.New("unknown application")
	// ErrUnknownStrategy reports a strategy name absent from the
	// registry (strategy.ByName).
	ErrUnknownStrategy = errors.New("unknown strategy")
	// ErrPlanInvalid reports an ExecutionPlan that fails validation or
	// cannot bind to its problem (plan.Validate, plan.FromJSON,
	// plan.Materialize).
	ErrPlanInvalid = errors.New("invalid plan")
	// ErrPlatformMismatch reports a plan executed on a platform other
	// than the one it was decided for (plan.CheckPlatform).
	ErrPlatformMismatch = errors.New("platform mismatch")
	// ErrCanceled reports a run abandoned because its context was
	// canceled or its deadline expired.
	ErrCanceled = errors.New("canceled")
	// ErrNilOutcome reports an outcome with no execution result where
	// one is required (heteropart.RecordRun).
	ErrNilOutcome = errors.New("outcome has no result")
	// ErrPlatformInvalid reports a PlatformSpec or Platform that
	// describes a degenerate machine: zero devices, an unreachable
	// device (zero-bandwidth link), an unknown model name, a dangling
	// P2P edge (device.Spec.Validate, device.PlatformFromJSON,
	// device.ByName); a spec or calibration report carrying a link
	// figure or cost factor outside its bounds (device.Scale.Validate,
	// calib.Report.Validate); or a platform without the accelerator a
	// strategy places work on.
	ErrPlatformInvalid = errors.New("invalid platform")
	// ErrFaultInvalid reports a FaultSchedule that fails decoding or
	// validation (fault.FromJSON, fault.Schedule.Validate).
	ErrFaultInvalid = errors.New("invalid fault schedule")
	// ErrFaultInjected reports a run halted by an injected fault
	// (chunk crash, transfer failure, device loss). Every injected
	// failure matches it; use ErrDeviceLost to distinguish losses.
	ErrFaultInjected = errors.New("fault injected")
	// ErrDeviceLost reports a run halted because an injected fault
	// removed a device mid-execution. It always also matches
	// ErrFaultInjected; the strategy layer answers it with a bounded
	// replan on the surviving devices.
	ErrDeviceLost = errors.New("device lost")
	// ErrCalibrationStale reports a CalibrationReport applied to a
	// platform other than the one it was fitted for: the report's
	// recorded base fingerprint does not match the target platform's
	// (calib.Report.Apply, the service's /v1/calibrate state).
	ErrCalibrationStale = errors.New("stale calibration")
	// ErrOptionsInvalid reports an incoherent Options combination
	// rejected before any work runs (strategy.Options.Validate): a
	// negative chunk count, a Glinda configuration with inverted
	// cutoffs, a span parent without a tracer, an invalid fault
	// schedule. It also reports a problem that cannot be built or run:
	// a size whose element or byte counts pass MaxInt64 (apps' Build,
	// mem.Directory.Register), a trip count above 1<<16, a size
	// Cholesky cannot tile, or host work that would finish past the
	// last representable virtual instant (rt.Execute).
	ErrOptionsInvalid = errors.New("invalid options")
)

// canceledError couples ErrCanceled with the context's own error, so
// errors.Is matches both ErrCanceled and context.Canceled /
// context.DeadlineExceeded.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "canceled: " + e.cause.Error() }

func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

func (e *canceledError) Unwrap() error { return e.cause }

// Canceled wraps a context error as an ErrCanceled.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &canceledError{cause: cause}
}

// FromContext returns a non-nil ErrCanceled when ctx is done, nil
// otherwise (including for a nil ctx). It is the cooperative check
// every cancellation point uses.
func FromContext(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}
