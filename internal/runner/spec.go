package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"heteropart/internal/analyzer"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/plan"
	"heteropart/internal/strategy"
)

// Spec names one independent simulation run — the unit the sweep
// executor shards. Two specs with the same canonical encoding describe
// the same virtual-time world and therefore the same result (the
// simulator is deterministic), which is what makes the result cache
// sound.
type Spec struct {
	// App is the application name (apps.ByName).
	App string
	// Strategy is the strategy name (strategy.ByName); empty selects
	// the analyzer's matchmaking pipeline (the paper's Fig. 2).
	Strategy string
	// Sync selects the inter-kernel synchronization variant.
	Sync apps.SyncMode
	// N and Iters parameterize the problem build (0 = paper default).
	N     int64
	Iters int
	// Plat is the platform to run on; nil selects the paper platform
	// with its default thread count. Platforms are immutable after
	// construction, so sharing one across concurrent runs is safe; the
	// cache key uses the platform fingerprint, not the pointer. A
	// calibrated run is a run on a calibrated platform
	// (calib.Report.Apply): the fingerprint's cost segment carries the
	// scales, so it never shares a cache key with a clean run.
	Plat *device.Platform
	// Chunks is the dynamic task count m (0 = platform thread count).
	Chunks int
	// NoSeed keeps DP-Perf's profiling phase inside the measurement.
	NoSeed bool
	// Compute executes real kernels (enables Verify on the problem).
	Compute bool
	// CollectTrace attaches a trace to the measured run.
	CollectTrace bool
	// WithMetrics attaches a fresh per-run metrics registry to the run;
	// the registry is returned in Result.Metrics.
	WithMetrics bool
	// Seed is a workload-seed knob reserved for randomized problem
	// builders. It participates in the cache key so differently-seeded
	// runs never alias.
	Seed int64
	// Fault, when non-nil, injects the schedule into the run (see
	// internal/fault). The schedule's canonical encoding participates
	// in both cache keys, so faulted runs never alias clean ones — and
	// since injection is as deterministic as the simulator, caching a
	// faulted run's outcome under its own key stays sound.
	Fault *fault.Schedule
}

// platform resolves the spec's platform, defaulting to the paper's.
func (s Spec) platform() *device.Platform {
	if s.Plat == nil {
		return device.PaperPlatform(0)
	}
	return s.Plat
}

// build makes the spec's problem with one memory space per device of
// plat; compute selects real kernels over timing-only ones.
func (s Spec) build(plat *device.Platform, compute bool) (*apps.Problem, error) {
	app, err := apps.ByName(s.App)
	if err != nil {
		return nil, err
	}
	return app.Build(apps.Variant{
		N: s.N, Iters: s.Iters, Sync: s.Sync,
		Spaces:  1 + len(plat.Accels),
		Compute: compute,
	})
}

// resolve picks the spec's strategy: the named one, or for a matchmade
// spec the analyzer's pick on p, returned with the analyzer's report.
func (s Spec) resolve(p *apps.Problem) (strategy.Strategy, *analyzer.Report, error) {
	name := s.Strategy
	var rep *analyzer.Report
	if name == "" {
		r, err := analyzer.Analyze(p)
		if err != nil {
			return nil, nil, err
		}
		rep, name = &r, r.Best
	}
	st, err := strategy.ByName(name)
	return st, rep, err
}

// Canonical renders the spec as a stable, human-readable encoding:
// every field in a fixed order, the platform by fingerprint. Equal
// canonical strings mean equal simulated worlds.
func (s Spec) Canonical() string {
	strat := s.Strategy
	if strat == "" {
		strat = "(matchmake)"
	}
	obs := fmt.Sprintf("compute=%t|trace=%t|metrics=%t|", s.Compute, s.CollectTrace, s.WithMetrics)
	return s.canonical("", strat, obs)
}

// Key is the content address of the spec: a SHA-256 over the canonical
// encoding. The result cache is keyed by it.
func (s Spec) Key() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}

// PlanCanonical is the canonical encoding of the spec's *decision*
// inputs: the fields that determine the ExecutionPlan a strategy
// produces. Compute, trace and metrics settings are deliberately
// absent — they change what an execution observes, not what the
// strategy decides — so a sweep toggling them shares one decided plan.
// resolved is the strategy's canonical name (for matchmade specs, the
// analyzer's pick), so "(matchmake)" and an explicit best-strategy
// spec alias to the same plan.
func (s Spec) PlanCanonical(resolved string) string {
	return s.canonical("plan|", resolved, "")
}

// canonical renders both cache keys from one list of the decision
// fields, in a fixed order after prefix. obs carries the observation
// fields (compute, trace, metrics), which only Canonical renders; they
// sit before seed. A new decision field is added here, once.
func (s Spec) canonical(prefix, strategy, obs string) string {
	return fmt.Sprintf("%sapp=%s|strategy=%s|sync=%d|n=%d|iters=%d|plat=%s|chunks=%d|noseed=%t|%sseed=%d|fault=%s",
		prefix, s.App, strategy, int(s.Sync), s.N, s.Iters,
		plan.Fingerprint(s.platform()), s.Chunks, s.NoSeed, obs, s.Seed, s.Fault.Canonical())
}

// PlanKey is the content address of the decision inputs; the plan
// cache is keyed by it.
func (s Spec) PlanKey(resolved string) string {
	sum := sha256.Sum256([]byte(s.PlanCanonical(resolved)))
	return hex.EncodeToString(sum[:])
}

// String abbreviates the spec for progress lines and errors.
func (s Spec) String() string {
	strat := s.Strategy
	if strat == "" {
		strat = "(matchmake)"
	}
	return fmt.Sprintf("%s/%s", s.App, strat)
}
