package runner

import (
	"context"
	"errors"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/metrics"
	"heteropart/internal/telemetry"
)

// TestValidateContextRunsThroughCache: validation runs every ranked
// strategy as a spec of its own, so the runs are counted and traced
// like any sweep's, and a repeated validation is all cache hits.
func TestValidateContextRunsThroughCache(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := telemetry.New()
	r := New(Config{Workers: 2, Metrics: reg, Spans: tr})
	spec := Spec{App: "STREAM-Seq", Sync: apps.SyncForced, N: 1 << 14}
	first, err := r.ValidateContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ranked := float64(len(first.Ranked))
	if ranked != 4 || len(first.Times) != 4 {
		t.Fatalf("ranked %v with times %v, want four strategies", first.Ranked, first.Times)
	}
	if v := counterValue(t, reg, "runner_runs_total"); v != ranked {
		t.Fatalf("runs = %v, want %v", v, ranked)
	}
	var sweeps, runs int
	for _, s := range tr.Spans() {
		switch s.Kind {
		case telemetry.KindSweep:
			sweeps++
		case telemetry.KindRun:
			runs++
		}
	}
	if sweeps != 1 || runs != len(first.Ranked) {
		t.Fatalf("got %d sweep and %d run spans, want 1 and %d", sweeps, runs, len(first.Ranked))
	}

	second, err := r.ValidateContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := counterValue(t, reg, "runner_cache_hits_total"); v != ranked {
		t.Fatalf("hits = %v after a repeated validation, want %v", v, ranked)
	}
	if v := counterValue(t, reg, "runner_runs_total"); v != ranked {
		t.Fatalf("runs = %v after a repeated validation, want %v", v, ranked)
	}
	for _, name := range first.Ranked {
		if first.Times[name] != second.Times[name] {
			t.Fatalf("%s: %v then %v", name, first.Times[name], second.Times[name])
		}
	}
}

// TestValidateContextRefusals: a spec that names a strategy, a
// canceled context and an unknown app fail typed, before any run.
func TestValidateContextRefusals(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Workers: 1, Metrics: reg})
	if _, err := r.ValidateContext(context.Background(), Spec{App: "MatrixMul", Strategy: "SP-Single"}); !errors.Is(err, apierr.ErrOptionsInvalid) {
		t.Fatalf("named strategy: err = %v, want ErrOptionsInvalid", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ValidateContext(ctx, Spec{App: "MatrixMul"}); !errors.Is(err, apierr.ErrCanceled) {
		t.Fatalf("canceled: err = %v, want ErrCanceled", err)
	}
	if _, err := r.ValidateContext(context.Background(), Spec{App: "MatrixMull"}); !errors.Is(err, apierr.ErrUnknownApp) {
		t.Fatalf("unknown app: err = %v, want ErrUnknownApp", err)
	}
	if v := counterValue(t, reg, "runner_runs_total"); v != 0 {
		t.Fatalf("runs = %v after refusals, want 0", v)
	}
}
