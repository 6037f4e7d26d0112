package analyzer_test

import (
	"context"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/runner"
)

// TestValidateRankingPaperSizes is the paper's core experiment
// (Section IV-B5): at the evaluation problem sizes on the Table III
// platform, the measured ordering of all suitable strategies must
// match Table I for every application variant. The runner measures
// the strategies the analyzer ranks.
func TestValidateRankingPaperSizes(t *testing.T) {
	r := runner.New(runner.Config{Workers: 2})
	cases := []struct {
		app  string
		sync apps.SyncMode
	}{
		{"MatrixMul", apps.SyncDefault},
		{"BlackScholes", apps.SyncDefault},
		{"Nbody", apps.SyncDefault},
		{"HotSpot", apps.SyncDefault},
		{"STREAM-Seq", apps.SyncNone},
		{"STREAM-Seq", apps.SyncForced},
		{"STREAM-Loop", apps.SyncNone},
		{"STREAM-Loop", apps.SyncForced},
		// Extension app: the imbalanced workload must keep the SK-One
		// ordering once the weighted pipeline is in play.
		{"Triangular", apps.SyncDefault},
	}
	for _, c := range cases {
		val, err := r.ValidateContext(context.Background(),
			runner.Spec{App: c.app, Sync: c.sync, Plat: device.PaperPlatform(12)})
		if err != nil {
			t.Fatal(err)
		}
		if !val.Matches {
			t.Errorf("%s sync=%d: empirical ranking %v (times %v) does not match Table I %v",
				c.app, c.sync, val.Empirical, val.Times, val.Ranked)
		}
		// The best-ranked strategy must actually be the fastest.
		if val.Empirical[0] != val.Ranked[0] {
			t.Errorf("%s sync=%d: fastest = %s, Table I head = %s",
				c.app, c.sync, val.Empirical[0], val.Ranked[0])
		}
	}
}

// TestValidateRankingBuildError: a variant the application cannot
// build fails the validation before any strategy runs.
func TestValidateRankingBuildError(t *testing.T) {
	r := runner.New(runner.Config{Workers: 1})
	// Non-tileable size: Build fails.
	if _, err := r.ValidateContext(context.Background(),
		runner.Spec{App: "Cholesky", N: 1000, Compute: true, Plat: device.PaperPlatform(4)}); err == nil {
		t.Fatal("bad variant accepted")
	}
}
