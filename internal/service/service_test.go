package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"heteropart"
)

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = heteropart.NewMetrics()
	}
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// postJSON posts a body and decodes the v1 envelope: on 200 the result
// member is a *Response, otherwise the error member is returned.
func postJSON(t *testing.T, url, body string) (int, *Response, *ErrorView) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	env := &Envelope{}
	if err := json.NewDecoder(resp.Body).Decode(env); err != nil {
		t.Fatalf("decode envelope (status %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode == http.StatusOK {
		if env.Error != nil || len(env.Result) == 0 {
			t.Fatalf("200 envelope must carry exactly the result member: %+v", env)
		}
		out := &Response{}
		if err := json.Unmarshal(env.Result, out); err != nil {
			t.Fatalf("decode result: %v", err)
		}
		return resp.StatusCode, out, nil
	}
	if env.Error == nil || len(env.Result) != 0 {
		t.Fatalf("status %d envelope must carry exactly the error member: %+v", resp.StatusCode, env)
	}
	return resp.StatusCode, nil, env.Error
}

func counter(reg *heteropart.Metrics, name string) float64 {
	for _, p := range reg.Snapshot(0).Points {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// TestServiceLoad is the issue's acceptance load: 64 concurrent
// matchmake requests over a small body mix, zero failures required,
// and the coalescing counters must show hits. It runs in short mode —
// `make service-load` invokes exactly this test.
func TestServiceLoad(t *testing.T) {
	reg := heteropart.NewMetrics()
	svc, ts := newTestService(t, Config{Workers: 4, Queue: 256, Metrics: reg})
	_ = svc

	bodies := []string{
		`{"app":"BlackScholes","n":16384}`,
		`{"app":"STREAM-Seq","n":16384}`,
		`{"app":"HotSpot","n":4096,"iters":4}`,
		`{"app":"MatrixMul","n":128}`,
	}
	const clients = 64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, resp, eb := postJSONQuiet(ts.URL+"/v1/matchmake", bodies[c%len(bodies)])
			if status != http.StatusOK {
				errs[c] = fmt.Errorf("client %d: status %d (%+v)", c, status, eb)
				return
			}
			if resp.Outcome == nil || resp.Outcome.MakespanNs <= 0 {
				errs[c] = fmt.Errorf("client %d: missing outcome", c)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if hits := counter(reg, "service_coalesce_hits_total"); hits <= 0 {
		t.Errorf("service_coalesce_hits_total = %v, want > 0", hits)
	}
	if got := counter(reg, "service_rejected_total"); got != 0 {
		t.Errorf("service_rejected_total = %v, want 0 (queue sized for the load)", got)
	}
}

// postJSONQuiet is postJSON without *testing.T (usable inside
// goroutines that must not Fatalf).
func postJSONQuiet(url, body string) (int, *Response, *ErrorView) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, &ErrorView{Code: "transport", Message: err.Error()}
	}
	defer resp.Body.Close()
	env := &Envelope{}
	if err := json.NewDecoder(resp.Body).Decode(env); err != nil {
		return resp.StatusCode, nil, &ErrorView{Code: "transport", Message: err.Error()}
	}
	if resp.StatusCode == http.StatusOK {
		out := &Response{}
		if err := json.Unmarshal(env.Result, out); err != nil {
			return resp.StatusCode, nil, &ErrorView{Code: "transport", Message: err.Error()}
		}
		return resp.StatusCode, out, nil
	}
	if env.Error == nil {
		return resp.StatusCode, nil, &ErrorView{Code: "transport", Message: "missing error member"}
	}
	return resp.StatusCode, nil, env.Error
}

// TestErrorMapping checks the sentinel → status table at the HTTP
// boundary: 404 unknown app/strategy, 400 validation and invalid
// plans, 409 platform mismatch, 499 abandoned deadline.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})

	cases := []struct {
		name, endpoint, body string
		want                 int
		code                 string
	}{
		{"unknown app", "/v1/matchmake", `{"app":"NoSuchApp"}`, http.StatusNotFound, CodeUnknownApp},
		{"unknown strategy", "/v1/matchmake", `{"app":"BlackScholes","strategy":"SP-Bogus"}`, http.StatusNotFound, CodeUnknownStrategy},
		{"missing app", "/v1/matchmake", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"bad sync", "/v1/matchmake", `{"app":"BlackScholes","sync":"sometimes"}`, http.StatusBadRequest, CodeBadRequest},
		{"negative n", "/v1/plan", `{"app":"BlackScholes","n":-1}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", "/v1/matchmake", `{"app":"BlackScholes","bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"missing plan", "/v1/execute", `{"app":"BlackScholes"}`, http.StatusBadRequest, CodeBadRequest},
		{"invalid plan", "/v1/execute", `{"plan":{"version":1}}`, http.StatusBadRequest, CodePlanInvalid},
		{"unknown platform", "/v1/matchmake", `{"app":"BlackScholes","platform":"quantum-rig"}`, http.StatusBadRequest, CodePlatformInvalid},
		{"unknown platform on plan", "/v1/plan", `{"app":"BlackScholes","platform":"quantum-rig"}`, http.StatusBadRequest, CodePlatformInvalid},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, eb := postJSON(t, ts.URL+c.endpoint, c.body)
			if status != c.want {
				t.Fatalf("status = %d, want %d (%+v)", status, c.want, eb)
			}
			if eb.Code != c.code || eb.Message == "" {
				t.Errorf("error = %+v, want code %q and a message", eb, c.code)
			}
		})
	}
}

// TestDeadlineMaps499 abandons an expensive request with a 1ms budget
// and expects the client-closed-request status.
func TestDeadlineMaps499(t *testing.T) {
	reg := heteropart.NewMetrics()
	_, ts := newTestService(t, Config{Workers: 1, Metrics: reg})
	// A chunk-heavy spec takes ~1.5s wall-clock; the 1ms budget expires
	// long before that, and abandoning the sole waiter cancels the
	// flight itself at its next phase boundary.
	status, _, eb := postJSON(t, ts.URL+"/v1/matchmake",
		`{"app":"STREAM-Loop","n":1048576,"iters":10,"chunks":256,"timeout_ms":1}`)
	if status != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (%+v)", status, StatusClientClosedRequest, eb)
	}
	if got := counter(reg, "service_canceled_total"); got < 1 {
		t.Errorf("service_canceled_total = %v, want >= 1", got)
	}
}

// TestPlatformMismatchMaps409 decides a plan on the 12-thread paper
// platform and replays it on a 4-thread one.
func TestPlatformMismatchMaps409(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	status, resp, eb := postJSON(t, ts.URL+"/v1/plan", `{"app":"BlackScholes","n":16384}`)
	if status != http.StatusOK {
		t.Fatalf("plan: status %d (%+v)", status, eb)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("plan response missing plan")
	}
	body, _ := json.Marshal(map[string]any{"plan": json.RawMessage(resp.Plan), "threads": 4})
	status, _, eb = postJSON(t, ts.URL+"/v1/execute", string(body))
	if status != http.StatusConflict {
		t.Fatalf("execute on mismatched platform: status %d, want 409 (%+v)", status, eb)
	}
}

// TestPlanThenExecuteMatchesMatchmake round-trips a decided plan
// through /v1/execute and expects the same measured outcome the
// one-shot /v1/matchmake reports.
func TestPlanThenExecuteMatchesMatchmake(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	const spec = `{"app":"STREAM-Seq","n":16384}`
	status, mm, eb := postJSON(t, ts.URL+"/v1/matchmake", spec)
	if status != http.StatusOK {
		t.Fatalf("matchmake: status %d (%+v)", status, eb)
	}
	status, planned, eb := postJSON(t, ts.URL+"/v1/plan", spec)
	if status != http.StatusOK {
		t.Fatalf("plan: status %d (%+v)", status, eb)
	}
	body, _ := json.Marshal(map[string]any{"plan": json.RawMessage(planned.Plan)})
	status, executed, eb := postJSON(t, ts.URL+"/v1/execute", string(body))
	if status != http.StatusOK {
		t.Fatalf("execute: status %d (%+v)", status, eb)
	}
	if executed.Outcome == nil || mm.Outcome == nil {
		t.Fatal("missing outcomes")
	}
	if *executed.Outcome != *mm.Outcome {
		t.Errorf("execute outcome %+v != matchmake outcome %+v", executed.Outcome, mm.Outcome)
	}
	if string(planned.Plan) != string(mm.Plan) {
		t.Errorf("plan bytes differ between /v1/plan and /v1/matchmake")
	}
}

// TestParityWithLibrary checks the service reports exactly what the
// library reports for the same problem — the daemon is a thin consumer
// of the public surface, not a second implementation.
func TestParityWithLibrary(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	status, resp, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"BlackScholes","n":16384}`)
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v)", status, eb)
	}
	app, err := heteropart.AppByName("BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(heteropart.Variant{N: 16384, Spaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, out, err := heteropart.Matchmake(p, heteropart.PaperPlatform(0), heteropart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome.MakespanNs != int64(out.Result.Makespan) {
		t.Errorf("service makespan %d != library makespan %d",
			resp.Outcome.MakespanNs, int64(out.Result.Makespan))
	}
	if resp.Report == nil || resp.Report.Best != rep.Best {
		t.Errorf("service report %+v != library best %q", resp.Report, rep.Best)
	}
}

// TestMatchmakeAtomicPhasesSkipsRatioSplit posts an atomic-phase
// problem whose class ranks SP-Varied first (Cholesky at n=1024, a
// 2x2-tile chain): the analyzer must pick a strategy that can run it,
// so the request succeeds instead of failing with a 500.
func TestMatchmakeAtomicPhasesSkipsRatioSplit(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	status, resp, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"Cholesky","n":1024}`)
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v), want 200", status, eb)
	}
	if resp.Report == nil || resp.Report.Best != "DP-Perf" {
		t.Fatalf("report = %+v, want best DP-Perf", resp.Report)
	}
	for _, name := range resp.Report.Ranked {
		if name == "SP-Varied" || name == "SP-Unified" {
			t.Errorf("ranked %v offers %s for atomic phases", resp.Report.Ranked, name)
		}
	}
	if resp.Outcome == nil || resp.Outcome.Strategy != "DP-Perf" {
		t.Fatalf("outcome = %+v, want a DP-Perf execution", resp.Outcome)
	}
}

// TestStructureOnlyMatchmake exercises the pure analysis path.
func TestStructureOnlyMatchmake(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	status, resp, eb := postJSON(t, ts.URL+"/v1/matchmake",
		`{"structure":"loop[10]{copy; scale; add; triad} !sync"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v)", status, eb)
	}
	if resp.Report == nil || resp.Report.Best == "" || len(resp.Report.Ranked) == 0 {
		t.Fatalf("report = %+v, want class + ranking", resp.Report)
	}
	if resp.Outcome != nil {
		t.Error("structure-only matchmake must not execute")
	}
}

// TestListings checks the static GET endpoints.
func TestListings(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	var apps []AppView
	getJSON(t, ts.URL+"/v1/apps", &apps)
	if len(apps) != len(heteropart.Apps()) {
		t.Errorf("apps listing has %d entries, want %d", len(apps), len(heteropart.Apps()))
	}
	for _, a := range apps {
		if a.Name == "" || a.Class == "" || a.Best == "" {
			t.Errorf("incomplete app entry: %+v", a)
		}
	}
	var strats []StrategyView
	getJSON(t, ts.URL+"/v1/strategies", &strats)
	if len(strats) != len(heteropart.Strategies()) {
		t.Errorf("strategies listing has %d entries, want %d", len(strats), len(heteropart.Strategies()))
	}
	var plats []PlatformView
	getJSON(t, ts.URL+"/v1/platforms", &plats)
	if len(plats) != len(heteropart.PlatformNames()) {
		t.Errorf("platforms listing has %d entries, want %d", len(plats), len(heteropart.PlatformNames()))
	}
	fps := map[string]bool{}
	for _, p := range plats {
		if p.Name == "" || p.Fingerprint == "" || len(p.Devices) < 2 {
			t.Errorf("incomplete platform entry: %+v", p)
		}
		if fps[p.Fingerprint] {
			t.Errorf("duplicate platform fingerprint %q", p.Fingerprint)
		}
		fps[p.Fingerprint] = true
	}
}

// TestMatchmakeOnCatalogPlatform runs the same request on the paper
// platform and on the dual-GPU catalog topology: both must succeed,
// and the two flights must not coalesce into one response (the
// platform fingerprint is part of the flight key).
func TestMatchmakeOnCatalogPlatform(t *testing.T) {
	reg := heteropart.NewMetrics()
	_, ts := newTestService(t, Config{Workers: 2, Metrics: reg})

	status, paper, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"BlackScholes","n":16384}`)
	if status != http.StatusOK {
		t.Fatalf("paper platform: status %d (%+v)", status, eb)
	}
	status, dual, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"BlackScholes","n":16384,"platform":"dual-gpu-bus"}`)
	if status != http.StatusOK {
		t.Fatalf("dual-gpu-bus: status %d (%+v)", status, eb)
	}
	if paper.Outcome == nil || dual.Outcome == nil {
		t.Fatal("missing outcome")
	}
	if hits := counter(reg, "service_coalesce_hits_total"); hits != 0 {
		t.Errorf("service_coalesce_hits_total = %v, want 0: different platforms must not coalesce", hits)
	}
}

// getJSON fetches a listing endpoint and decodes the envelope's result
// member into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	env := &Envelope{}
	if err := json.NewDecoder(resp.Body).Decode(env); err != nil {
		t.Fatalf("decode %s envelope: %v", url, err)
	}
	if env.Error != nil || len(env.Result) == 0 {
		t.Fatalf("GET %s: envelope must carry exactly the result member: %+v", url, env)
	}
	if err := json.Unmarshal(env.Result, v); err != nil {
		t.Fatalf("decode %s result: %v", url, err)
	}
}

// TestCoalescingSharesOneExecution fires identical requests
// concurrently and expects exactly one runner execution.
func TestCoalescingSharesOneExecution(t *testing.T) {
	reg := heteropart.NewMetrics()
	_, ts := newTestService(t, Config{Workers: 2, Metrics: reg})
	const clients = 8
	var wg sync.WaitGroup
	responses := make([]*Response, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, resp, _ := postJSONQuiet(ts.URL+"/v1/matchmake", `{"app":"MatrixMul","n":128}`)
			if status == http.StatusOK {
				responses[c] = resp
			}
		}(c)
	}
	wg.Wait()
	first := responses[0]
	for c, r := range responses {
		if r == nil {
			t.Fatalf("client %d failed", c)
		}
		if r.Outcome == nil || *r.Outcome != *first.Outcome {
			t.Errorf("client %d outcome diverges: %+v vs %+v", c, r.Outcome, first.Outcome)
		}
	}
	if runs := counter(reg, "runner_runs_total"); runs != 1 {
		t.Errorf("runner_runs_total = %v, want 1 (coalesced)", runs)
	}
	if hits := counter(reg, "service_coalesce_hits_total"); hits != clients-1 {
		t.Errorf("service_coalesce_hits_total = %v, want %d", hits, clients-1)
	}
}

// TestBackpressure floods a tiny queue and expects 429 with a
// Retry-After hint; the shed requests must not corrupt the ones that
// were admitted.
func TestBackpressure(t *testing.T) {
	reg := heteropart.NewMetrics()
	_, ts := newTestService(t, Config{Workers: 1, Queue: 1, Metrics: reg})
	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, shed int
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Distinct bodies so requests cannot coalesce their way
			// around admission.
			body := fmt.Sprintf(`{"app":"MatrixMul","n":%d}`, 96+c)
			resp, err := http.Post(ts.URL+"/v1/matchmake", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed++
			default:
				t.Errorf("client %d: unexpected status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request succeeded under backpressure")
	}
	if shed == 0 {
		t.Skip("scheduler admitted everything; backpressure not exercised this run")
	}
	if got := counter(reg, "service_rejected_total"); got != float64(shed) {
		t.Errorf("service_rejected_total = %v, want %d", got, shed)
	}
}

// TestPanicIsolation injects a panic into a flight worker and expects
// a 500, a counted panic, and an untouched service afterwards.
func TestPanicIsolation(t *testing.T) {
	reg := heteropart.NewMetrics()
	svc, ts := newTestService(t, Config{Workers: 1, Metrics: reg})
	svc.panicHook = func() { panic("injected") }
	status, _, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"MatrixMul","n":112}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%+v)", status, eb)
	}
	if got := counter(reg, "service_panics_total"); got != 1 {
		t.Errorf("service_panics_total = %v, want 1", got)
	}
	svc.panicHook = nil
	status, resp, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"MatrixMul","n":112}`)
	if status != http.StatusOK || resp.Outcome == nil {
		t.Fatalf("service did not survive the panic: status %d (%+v)", status, eb)
	}
}

// TestGracefulShutdownDrains starts a slow request, shuts the server
// down mid-flight, and expects the request to finish with 200 before
// Shutdown returns; afterwards the closed service answers 503.
func TestGracefulShutdownDrains(t *testing.T) {
	svc := New(Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	type result struct {
		status int
		resp   *Response
	}
	done := make(chan result, 1)
	go func() {
		status, resp, _ := postJSONQuiet(url+"/v1/matchmake",
			`{"app":"STREAM-Loop","n":1048576,"iters":10,"chunks":128}`)
		done <- result{status, resp}
	}()
	// Wait for the request to be admitted before draining.
	deadline := time.Now().Add(5 * time.Second)
	for svc.inflightN.Load() == 0 && svc.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown has waited for the handler; the client goroutine may
	// still be decoding the response body, so give it a bounded moment
	// rather than demanding the result instantaneously.
	select {
	case r := <-done:
		if r.status != http.StatusOK || r.resp == nil || r.resp.Outcome == nil {
			t.Fatalf("in-flight request during drain: status %d resp %+v", r.status, r.resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown returned but the in-flight request never completed")
	}

	svc.Close()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/matchmake", strings.NewReader(`{"app":"MatrixMul","n":128}`))
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("closed service answered %d, want 503", rec.Code)
	}
}

// TestStatusFor pins the sentinel → status table directly.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("x: %w", heteropart.ErrUnknownApp), http.StatusNotFound},
		{fmt.Errorf("x: %w", heteropart.ErrUnknownStrategy), http.StatusNotFound},
		{fmt.Errorf("x: %w", heteropart.ErrPlanInvalid), http.StatusBadRequest},
		{fmt.Errorf("x: %w", heteropart.ErrPlatformMismatch), http.StatusConflict},
		{fmt.Errorf("x: %w", heteropart.ErrCalibrationStale), http.StatusConflict},
		{fmt.Errorf("x: %w", heteropart.ErrOptionsInvalid), http.StatusBadRequest},
		{fmt.Errorf("x: %w", heteropart.ErrCanceled), StatusClientClosedRequest},
		{context.DeadlineExceeded, StatusClientClosedRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCodeFor pins the sentinel → envelope-code table directly.
func TestCodeFor(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{fmt.Errorf("x: %w", heteropart.ErrUnknownApp), CodeUnknownApp},
		{fmt.Errorf("x: %w", heteropart.ErrUnknownStrategy), CodeUnknownStrategy},
		{fmt.Errorf("x: %w", heteropart.ErrPlanInvalid), CodePlanInvalid},
		{fmt.Errorf("x: %w", heteropart.ErrFaultInvalid), CodeFaultInvalid},
		{fmt.Errorf("x: %w", heteropart.ErrOptionsInvalid), CodeOptionsInvalid},
		{fmt.Errorf("x: %w", heteropart.ErrPlatformInvalid), CodePlatformInvalid},
		{fmt.Errorf("x: %w", heteropart.ErrPlatformMismatch), CodePlatformMismatch},
		{fmt.Errorf("x: %w", heteropart.ErrCalibrationStale), CodeCalibrationStale},
		{fmt.Errorf("x: %w", heteropart.ErrFaultInjected), CodeFaultInjected},
		// Device-loss failures match both sentinels (fault.LossError);
		// the envelope classifies them as fault_injected.
		{fmt.Errorf("x: %w%w", heteropart.ErrDeviceLost, heteropart.ErrFaultInjected), CodeFaultInjected},
		{fmt.Errorf("x: %w", heteropart.ErrCanceled), CodeCanceled},
		{context.DeadlineExceeded, CodeCanceled},
		{badRequest("nope"), CodeBadRequest},
		{errors.New("boom"), CodeInternal},
	}
	for _, c := range cases {
		if got := codeFor(c.err); got != c.want {
			t.Errorf("codeFor(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
