package heteropart_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"heteropart"
)

func TestMatchmakeRunsBestStrategy(t *testing.T) {
	app, err := heteropart.AppByName("BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(heteropart.Variant{N: 5000, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, out, err := heteropart.Matchmake(p, heteropart.PaperPlatform(4), heteropart.Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != "SP-Single" || out.Strategy != "SP-Single" {
		t.Fatalf("matchmake ran %s (report %s), want SP-Single", out.Strategy, rep.Best)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchmakeErrors(t *testing.T) {
	// Empty problem: Analyze fails inside Matchmake.
	if _, _, err := heteropart.Matchmake(&heteropart.Problem{}, heteropart.PaperPlatform(4), heteropart.Options{}); err == nil {
		t.Fatal("empty problem matchmade")
	}
}

// TestMatchmakeSkipsRatioSplitForAtomicPhases: Cholesky at n=1024
// classifies as MK-Seq with sync, whose Table I head SP-Varied refuses
// indivisible phases; Matchmake must run the analyzer's DP-Perf
// instead of failing.
func TestMatchmakeSkipsRatioSplitForAtomicPhases(t *testing.T) {
	app, err := heteropart.AppByName("Cholesky")
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(heteropart.Variant{N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := heteropart.Matchmake(p, heteropart.PaperPlatform(0), heteropart.Options{})
	if err != nil {
		t.Fatalf("matchmake: %v", err)
	}
	if out.Strategy != "DP-Perf" {
		t.Fatalf("matchmake ran %s, want DP-Perf", out.Strategy)
	}
}

// renamed is a bundled application under another Go type: the
// registry knows its name but not the app.
type renamed struct{ heteropart.App }

// TestValidateRankingRefusals: the facade validates on a runner, so an
// application the registry does not know and options a RunSpec cannot
// carry are refused with typed errors before anything runs.
func TestValidateRankingRefusals(t *testing.T) {
	plat := heteropart.PaperPlatform(0)
	mm, err := heteropart.AppByName("MatrixMul")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heteropart.ValidateRanking(renamed{mm}, heteropart.Variant{}, plat, heteropart.Options{}); !errors.Is(err, heteropart.ErrUnknownApp) {
		t.Errorf("renamed app: err = %v, want ErrUnknownApp", err)
	}
	for name, opts := range map[string]heteropart.Options{
		"metrics": {Metrics: heteropart.NewMetrics()},
		"spans":   {Spans: heteropart.NewSpanTracer()},
		"chunks":  {Chunks: -1},
	} {
		if _, err := heteropart.ValidateRanking(mm, heteropart.Variant{N: 256}, plat, opts); !errors.Is(err, heteropart.ErrOptionsInvalid) {
			t.Errorf("%s: err = %v, want ErrOptionsInvalid", name, err)
		}
	}
}

// validateRankingOracle is ValidateRanking as it was before validation
// moved onto the runner: a fresh build and a direct Strategy.Run per
// ranked strategy, then the ordering and the 5% tie check.
func validateRankingOracle(app heteropart.App, v heteropart.Variant, plat *heteropart.Platform, opts heteropart.Options) (*heteropart.Validation, error) {
	probe, err := app.Build(v)
	if err != nil {
		return nil, err
	}
	rep, err := heteropart.Analyze(probe)
	if err != nil {
		return nil, err
	}
	val := &heteropart.Validation{Report: rep, Times: make(map[string]heteropart.Duration)}
	for _, name := range rep.Ranked {
		s, err := heteropart.StrategyByName(name)
		if err != nil {
			return nil, err
		}
		p, err := app.Build(v)
		if err != nil {
			return nil, err
		}
		out, err := s.Run(p, plat, opts)
		if err != nil {
			return nil, fmt.Errorf("validating %s with %s: %w", rep.App, name, err)
		}
		val.Times[name] = out.Result.Makespan
	}
	val.Empirical = append([]string(nil), rep.Ranked...)
	sort.SliceStable(val.Empirical, func(i, j int) bool {
		return val.Times[val.Empirical[i]] < val.Times[val.Empirical[j]]
	})
	val.Matches = true
	for i := 0; i+1 < len(rep.Ranked); i++ {
		if float64(val.Times[rep.Ranked[i]]) > float64(val.Times[rep.Ranked[i+1]])*1.05 {
			val.Matches = false
			break
		}
	}
	return val, nil
}

// TestValidateRankingMatchesOracle: Runner.ValidateContext and the
// facade's ValidateRanking agree with the oracle on every registered
// app × catalog platform × sync mode at N/16, and on Table I's eight
// cases at paper size.
func TestValidateRankingMatchesOracle(t *testing.T) {
	type tc struct {
		app  heteropart.App
		plat *heteropart.Platform
		v    heteropart.Variant
	}
	var cases []tc
	for _, name := range heteropart.PlatformNames() {
		plat, err := heteropart.PlatformByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range heteropart.Apps() {
			for _, sync := range []heteropart.SyncMode{heteropart.SyncDefault, heteropart.SyncForced, heteropart.SyncNone} {
				cases = append(cases, tc{app, plat, heteropart.Variant{N: app.DefaultN() / 16, Sync: sync}})
			}
		}
	}
	paper := heteropart.PaperPlatform(12)
	for _, c := range []struct {
		app  string
		sync heteropart.SyncMode
	}{
		{"MatrixMul", heteropart.SyncDefault}, {"BlackScholes", heteropart.SyncDefault},
		{"Nbody", heteropart.SyncDefault}, {"HotSpot", heteropart.SyncDefault},
		{"STREAM-Seq", heteropart.SyncNone}, {"STREAM-Seq", heteropart.SyncForced},
		{"STREAM-Loop", heteropart.SyncNone}, {"STREAM-Loop", heteropart.SyncForced},
	} {
		app, err := heteropart.AppByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{app, paper, heteropart.Variant{Sync: c.sync}})
	}

	r := heteropart.NewRunner(heteropart.RunnerConfig{Workers: 2})
	for _, c := range cases {
		label := fmt.Sprintf("%s on %s n=%d sync=%d", c.app.Name(), c.plat, c.v.N, c.v.Sync)
		v := c.v
		v.Spaces = 1 + len(c.plat.Accels)
		want, err := validateRankingOracle(c.app, v, c.plat, heteropart.Options{})
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		viaRunner, err := r.ValidateContext(context.Background(),
			heteropart.RunSpec{App: c.app.Name(), Sync: v.Sync, N: v.N, Plat: c.plat})
		if err != nil {
			t.Fatalf("%s: runner: %v", label, err)
		}
		viaFacade, err := heteropart.ValidateRanking(c.app, c.v, c.plat, heteropart.Options{})
		if err != nil {
			t.Fatalf("%s: facade: %v", label, err)
		}
		for via, got := range map[string]*heteropart.Validation{"runner": viaRunner, "facade": viaFacade} {
			if !reflect.DeepEqual(got.Report, want.Report) || !reflect.DeepEqual(got.Times, want.Times) ||
				!slices.Equal(got.Empirical, want.Empirical) || got.Matches != want.Matches {
				t.Errorf("%s: %s validation differs from the oracle:\ngot  %v %v %v matches=%v\nwant %v %v %v matches=%v",
					label, via, got.Report, got.Times, got.Empirical, got.Matches,
					want.Report, want.Times, want.Empirical, want.Matches)
			}
		}
	}
}

// TestUncarriableCalibrationRefusedThroughFacade: Matchmake and
// ExecutePlan refuse a platform whose calibration no platform spec or
// calibration report could carry (a factor far below the bound, a zero
// factor, a repeated (kernel, device) pair) with ErrPlatformInvalid.
func TestUncarriableCalibrationRefusedThroughFacade(t *testing.T) {
	app, err := heteropart.AppByName("BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	perf, err := heteropart.StrategyByName("DP-Perf")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		scales []heteropart.CostScale
	}{
		{"tiny factor", []heteropart.CostScale{{Device: -1, Factor: 1e-300}}},
		{"zero factor", []heteropart.CostScale{{Device: 1, Factor: 0}}},
		{"repeated pair", []heteropart.CostScale{{Device: 1, Factor: 1.5}, {Device: 1, Factor: 2}}},
	} {
		plat := heteropart.PaperPlatform(0).WithScales(c.scales)
		p, err := app.Build(heteropart.Variant{N: 16384})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := heteropart.Matchmake(p, plat, heteropart.Options{}); !errors.Is(err, heteropart.ErrPlatformInvalid) {
			t.Errorf("%s: Matchmake = %v, want ErrPlatformInvalid", c.name, err)
		}
		// Deciding DP-Perf prices nothing, so the plan binds to the
		// calibrated platform; executing it must refuse.
		pl, err := perf.Plan(p, plat, heteropart.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heteropart.ExecutePlan(pl, p, plat, heteropart.Options{}); !errors.Is(err, heteropart.ErrPlatformInvalid) {
			t.Errorf("%s: ExecutePlan = %v, want ErrPlatformInvalid", c.name, err)
		}
	}
}
