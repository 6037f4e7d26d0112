package runner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/fault"
	"heteropart/internal/plan"
)

// TestExecuteContextReplaysRun: replaying the plan Run decided, after a
// JSON round trip as hetsim -plan-in and /v1/execute read it, gives
// the identical outcome — makespan, per-device elements, transfer
// bytes, decisions and every trace record.
func TestExecuteContextReplaysRun(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []Spec{
		{App: "BlackScholes", Strategy: "SP-Single", N: 16384, CollectTrace: true},
		{App: "HotSpot", Strategy: "DP-Perf", N: 1024, Iters: 2, CollectTrace: true},
		{App: "Cholesky", Strategy: "DP-Dep", N: 512, CollectTrace: true},
	} {
		t.Run(spec.Strategy, func(t *testing.T) {
			r := New(Config{Workers: 1})
			ran, err := r.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			data, err := ran.Plan.JSON()
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.FromJSON(data)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Strategy == "DP-Perf" && !pl.Scheduler.Seeded {
				t.Fatal("DP-Perf plan is not seeded; the replay would skip the training pass")
			}
			replayed, err := r.ExecuteContext(ctx, spec, pl)
			if err != nil {
				t.Fatal(err)
			}
			want, got := ran.Outcome, replayed.Outcome
			if got == want {
				t.Fatal("replay recalled the cached run instead of executing")
			}
			if got.Strategy != want.Strategy {
				t.Errorf("strategy = %q, want %q", got.Strategy, want.Strategy)
			}
			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Errorf("result = %+v\nwant     %+v", got.Result, want.Result)
			}
			if !reflect.DeepEqual(got.Decisions, want.Decisions) {
				t.Errorf("decisions = %+v\nwant        %+v", got.Decisions, want.Decisions)
			}
			if len(want.Trace.Records) == 0 || !reflect.DeepEqual(got.Trace.Records, want.Trace.Records) {
				t.Errorf("trace: %d records, want the run's %d identical records",
					len(got.Trace.Records), len(want.Trace.Records))
			}
			if replayed.Plan != pl || replayed.Report != nil {
				t.Errorf("replay result: plan %p (want the given %p), report %+v (want none)",
					replayed.Plan, pl, replayed.Report)
			}
		})
	}
}

// TestReplayFailsOnDeviceLoss: under a device_loss schedule, Run of a
// spec replans on the survivors once, while replaying the plan decided
// for the same spec fails with ErrDeviceLost and degrades nothing.
func TestReplayFailsOnDeviceLoss(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		App: "MatrixMul", Strategy: "SP-Single", N: 256,
		Fault: &fault.Schedule{
			Version: fault.ScheduleVersion,
			Faults:  []fault.Fault{{Kind: fault.KindDeviceLoss, Device: 1, After: 1}},
		},
	}
	r := New(Config{Workers: 1})
	ran, err := r.Run(spec)
	if err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	if n := len(ran.Outcome.Degradations); n != 1 {
		t.Fatalf("run degradations = %+v, want exactly one", ran.Outcome.Degradations)
	}
	pl, _, err := r.PlanContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ExecuteContext(ctx, spec, pl)
	if !errors.Is(err, apierr.ErrDeviceLost) {
		t.Fatalf("replay error = %v, want one wrapping ErrDeviceLost", err)
	}
	if res != nil {
		t.Fatalf("failed replay returned a result with degradations %+v", res.Outcome.Degradations)
	}
}

// TestExecuteContextRejectsNilPlan: a replay needs a plan.
func TestExecuteContextRejectsNilPlan(t *testing.T) {
	r := New(Config{Workers: 1})
	_, err := r.ExecuteContext(context.Background(), Spec{App: "MatrixMul"}, nil)
	if !errors.Is(err, apierr.ErrPlanInvalid) {
		t.Fatalf("nil plan error = %v, want ErrPlanInvalid", err)
	}
}
