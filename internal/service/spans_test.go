package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"heteropart"
	"heteropart/internal/telemetry"
)

// TestExecuteRunsUnderRequestSpan: with Config.Spans set, one
// /v1/execute request records the runner's run span under its request
// span, with the replay's execute span under that run, and the replay
// counts in runner_runs_total.
func TestExecuteRunsUnderRequestSpan(t *testing.T) {
	tr := telemetry.New()
	reg := heteropart.NewMetrics()
	_, ts := newTestService(t, Config{Workers: 1, Spans: tr, Metrics: reg})
	status, planned, eb := postJSON(t, ts.URL+"/v1/plan", `{"app":"MatrixMul","n":128}`)
	if status != http.StatusOK {
		t.Fatalf("plan: status %d (%+v)", status, eb)
	}
	body, _ := json.Marshal(map[string]any{"plan": json.RawMessage(planned.Plan)})
	if status, _, eb := postJSON(t, ts.URL+"/v1/execute", string(body)); status != http.StatusOK {
		t.Fatalf("execute: status %d (%+v)", status, eb)
	}

	spans := tr.Spans()
	child := func(parent telemetry.SpanID, kind telemetry.Kind) telemetry.SpanID {
		for _, sp := range spans {
			if sp.Parent == parent && sp.Kind == kind {
				return sp.ID
			}
		}
		return 0
	}
	var request telemetry.SpanID
	for _, sp := range spans {
		if sp.Kind == telemetry.KindRequest && sp.Name == "execute" {
			request = sp.ID
		}
	}
	if request == 0 {
		t.Fatal("no execute request span recorded")
	}
	run := child(request, telemetry.KindRun)
	if run == 0 {
		t.Fatalf("no run span under the execute request span %d (%d spans recorded)", request, len(spans))
	}
	if child(run, telemetry.KindExecute) == 0 {
		t.Errorf("no execute span under run span %d", run)
	}
	if got := counter(reg, "runner_runs_total"); got != 1 {
		t.Errorf("runner_runs_total = %v, want 1 (the replay; planning executes nothing)", got)
	}
}
