package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"heteropart"
)

// oracleEnvelope is the reference two-pass rendering: marshal the
// result, marshal the envelope around it, append a newline.
// renderResult must match it byte for byte.
func oracleEnvelope(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(Envelope{Result: b})
	if err != nil {
		t.Fatal(err)
	}
	return append(env, '\n')
}

// oracleResponse is a flight's Response for the two-pass rendering:
// the plan as pl.JSON's indented bytes, which the envelope compacts.
func oracleResponse(t *testing.T, rep *heteropart.Report, pl *heteropart.ExecutionPlan, out *heteropart.Outcome) *Response {
	t.Helper()
	resp, err := responseOf(rep, nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if pl != nil {
		if resp.Plan, err = pl.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// serveBytes answers one request in process and returns its status,
// whether it was coalesced, and the body bytes.
func serveBytes(t *testing.T, h http.Handler, method, path, body string) (int, string, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Header().Get("X-Heteropart-Coalesced"), rec.Body.Bytes()
}

// specFor resolves a request body to the RunSpec the service runs.
func specFor(t *testing.T, svc *Service, body string) heteropart.RunSpec {
	t.Helper()
	req := &Request{}
	if err := json.Unmarshal([]byte(body), req); err != nil {
		t.Fatal(err)
	}
	spec, err := svc.specOf(req)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestServedBytesMatchOracle: every successful answer is byte-identical
// to the two-pass rendering of the same value, computed independently
// from the library, and a memoized hit's bytes equal the miss's.
func TestServedBytesMatchOracle(t *testing.T) {
	svc := New(Config{Workers: 2})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	lib := heteropart.NewRunner(heteropart.RunnerConfig{Workers: 1})
	ctx := context.Background()

	// flight serves body twice: a miss, then a memoized hit, and
	// checks both against want.
	flight := func(name, path, body string, want []byte) {
		t.Helper()
		for i, wantJoined := range []string{"false", "true"} {
			status, joined, got := serveBytes(t, h, "POST", path, body)
			if status != http.StatusOK || joined != wantJoined {
				t.Fatalf("%s request %d: status %d, coalesced %s\n%s", name, i, status, joined, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s request %d: served bytes differ from the oracle\ngot:  %s\nwant: %s", name, i, got, want)
			}
		}
	}

	for _, body := range []string{
		`{"app":"MatrixMul","n":128}`,
		`{"app":"HotSpot","n":2048,"platform":"tri-asym-p2p"}`,
		`{"app":"BlackScholes","n":16384,"strategy":"SP-Unified","platform":"dual-gpu-bus"}`,
	} {
		res, err := lib.Run(specFor(t, svc, body))
		if err != nil {
			t.Fatal(err)
		}
		flight("matchmake "+body, "/v1/matchmake", body,
			oracleEnvelope(t, oracleResponse(t, res.Report, res.Plan, res.Outcome)))
	}

	const planBody = `{"app":"STREAM-Seq","n":16384}`
	pl, rep, err := lib.PlanContext(ctx, specFor(t, svc, planBody))
	if err != nil {
		t.Fatal(err)
	}
	flight("plan", "/v1/plan", planBody, oracleEnvelope(t, oracleResponse(t, rep, pl, nil)))

	planJSON, err := pl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	execBody, _ := json.Marshal(map[string]any{"plan": json.RawMessage(planJSON)})
	app, err := heteropart.AppByName(pl.App)
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Build(heteropart.Variant{N: pl.N, Iters: pl.Iters, Spaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := heteropart.ExecutePlan(pl, p, heteropart.PaperPlatform(0), heteropart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flight("execute", "/v1/execute", string(execBody), oracleEnvelope(t, oracleResponse(t, nil, pl, out)))

	// The inline answers have no library counterpart to recompute, so
	// their oracle re-renders the served value: decoding and rendering
	// it the two-pass way must give back the served bytes.
	report := &heteropart.CalibrationReport{
		Version: 1, App: "MatrixMul",
		Platform: heteropart.PlatformFingerprint(heteropart.PaperPlatform(0)),
		Scales:   []heteropart.CostScale{{Device: 1, Factor: 1.5}},
	}
	rb, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	calBody, _ := json.Marshal(map[string]any{"calibration": json.RawMessage(rb)})
	for _, c := range []struct{ name, path, body string }{
		{"structure", "/v1/matchmake", `{"structure":"loop[10]{copy; scale; add; triad} !sync"}`},
		{"calibrate", "/v1/calibrate", string(calBody)},
	} {
		status, _, got := serveBytes(t, h, "POST", c.path, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", c.name, status, got)
		}
		var env Envelope
		var resp Response
		if err := json.Unmarshal(got, &env); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(env.Result, &resp); err != nil {
			t.Fatal(err)
		}
		if want := oracleEnvelope(t, &resp); !bytes.Equal(got, want) {
			t.Errorf("%s: served bytes differ from the oracle\ngot:  %s\nwant: %s", c.name, got, want)
		}
	}

	for _, c := range []struct {
		path  string
		views any
	}{
		{"/v1/apps", appsListing()},
		{"/v1/strategies", strategiesListing()},
		{"/v1/platforms", platformsListing()},
	} {
		status, _, got := serveBytes(t, h, "GET", c.path, "")
		if want := oracleEnvelope(t, c.views); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, served bytes differ from the oracle\ngot:  %s\nwant: %s", c.path, status, got, want)
		}
	}
}

// TestCalibratedBytesMatchOracle: after POST /v1/calibrate, the
// matchmake, plan and execute answers are byte-identical to the oracle
// envelopes of a fresh runner on report.Apply(PaperPlatform(0)): a
// calibration reaches the runner only through its platform.
func TestCalibratedBytesMatchOracle(t *testing.T) {
	svc := New(Config{Workers: 2})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	report := &heteropart.CalibrationReport{
		Version: 1, App: "BlackScholes",
		Platform: heteropart.PlatformFingerprint(heteropart.PaperPlatform(0)),
		Scales:   []heteropart.CostScale{{Device: 0, Factor: 1.2}, {Device: 1, Factor: 1.5}},
	}
	rb, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	calBody, _ := json.Marshal(map[string]any{"calibration": json.RawMessage(rb)})
	if status, _, got := serveBytes(t, h, "POST", "/v1/calibrate", string(calBody)); status != http.StatusOK {
		t.Fatalf("calibrate: status %d\n%s", status, got)
	}
	plat, err := report.Apply(heteropart.PaperPlatform(0))
	if err != nil {
		t.Fatal(err)
	}
	lib := heteropart.NewRunner(heteropart.RunnerConfig{Workers: 1})
	ctx := context.Background()
	served := func(name, path, body string, want []byte) {
		t.Helper()
		status, _, got := serveBytes(t, h, "POST", path, body)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, served bytes differ from the oracle\ngot:  %s\nwant: %s", name, status, got, want)
		}
	}

	for _, c := range []struct {
		body string
		spec heteropart.RunSpec
	}{
		{`{"app":"BlackScholes","n":16384}`, heteropart.RunSpec{App: "BlackScholes", N: 16384, Plat: plat}},
		{`{"app":"HotSpot","n":1024,"strategy":"DP-Perf"}`, heteropart.RunSpec{App: "HotSpot", Strategy: "DP-Perf", N: 1024, Plat: plat}},
	} {
		res, err := lib.Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		served("matchmake "+c.body, "/v1/matchmake", c.body,
			oracleEnvelope(t, oracleResponse(t, res.Report, res.Plan, res.Outcome)))

		pl, rep, err := lib.PlanContext(ctx, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		served("plan "+c.body, "/v1/plan", c.body, oracleEnvelope(t, oracleResponse(t, rep, pl, nil)))

		planJSON, err := pl.JSON()
		if err != nil {
			t.Fatal(err)
		}
		exec, err := lib.ExecuteContext(ctx, heteropart.RunSpec{App: pl.App, N: pl.N, Iters: pl.Iters, Plat: plat}, pl)
		if err != nil {
			t.Fatal(err)
		}
		execBody, _ := json.Marshal(map[string]any{"plan": json.RawMessage(planJSON)})
		served("execute "+c.body, "/v1/execute", string(execBody), oracleEnvelope(t, oracleResponse(t, nil, pl, exec.Outcome)))
	}
}

// TestEvictedFlightRerendersSameBytes: with room for one memoized
// flight, a second key evicts the first, and the first key's new
// flight renders the bytes its evicted flight served.
func TestEvictedFlightRerendersSameBytes(t *testing.T) {
	svc := New(Config{Workers: 1, MaxFlights: 1})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	const a, b = `{"app":"MatrixMul","n":128}`, `{"app":"STREAM-Seq","n":16384}`
	_, _, first := serveBytes(t, h, "POST", "/v1/matchmake", a)
	serveBytes(t, h, "POST", "/v1/matchmake", b)
	status, joined, again := serveBytes(t, h, "POST", "/v1/matchmake", a)
	if status != http.StatusOK || joined != "false" {
		t.Fatalf("after eviction: status %d, coalesced %s, want a new flight", status, joined)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("re-run flight renders different bytes\nfirst: %s\nagain: %s", first, again)
	}
}

// discardWriter is a ResponseWriter that keeps only the last status
// and the byte count, so an allocation measure counts the handler's
// own bytes and not a recorder's copy of the body.
type discardWriter struct {
	header    http.Header
	status, n int
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.status = code }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// memoizedAnswer is the request with the largest answer among the
// service benchmark's hot bodies: a STREAM-Loop matchmake of about
// 26 KB.
const memoizedAnswer = `{"app":"STREAM-Loop","n":3932160,"sync":"none"}`

// TestMemoizedHitAllocatesLessThanAnswer: a memoized hit copies the
// flight's bytes instead of encoding them, so the heap it allocates is
// smaller than the answer it sends. The heap counter is process-wide,
// so the cheapest of a few rounds counts, not one a goroutine left by
// an earlier test allocated into.
func TestMemoizedHitAllocatesLessThanAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates per call")
	}
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	status, _, answer := serveBytes(t, h, "POST", "/v1/matchmake", memoizedAnswer)
	if status != http.StatusOK {
		t.Fatalf("miss: status %d\n%s", status, answer)
	}
	const rounds, hits = 3, 50
	perHit := uint64(math.MaxUint64)
	for round := 0; round < rounds; round++ {
		reqs := make([]*http.Request, hits)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/v1/matchmake", strings.NewReader(memoizedAnswer))
		}
		w := &discardWriter{header: http.Header{}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range reqs {
			h.ServeHTTP(w, r)
		}
		runtime.ReadMemStats(&after)
		if w.status != http.StatusOK || w.n != hits*len(answer) {
			t.Fatalf("hits: status %d, %d bytes, want %d", w.status, w.n, hits*len(answer))
		}
		perHit = min(perHit, (after.TotalAlloc-before.TotalAlloc)/hits)
	}
	if perHit >= uint64(len(answer)) {
		t.Errorf("a memoized hit allocates %d B, not less than its %d B answer", perHit, len(answer))
	}
}

// BenchmarkServeMemoized serves the memoized STREAM-Loop answer in
// process: the whole handler, from request decode to the written bytes.
func BenchmarkServeMemoized(b *testing.B) {
	svc := New(Config{Workers: 1})
	b.Cleanup(svc.Close)
	h := svc.Handler()
	w := &discardWriter{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/matchmake", strings.NewReader(memoizedAnswer)))
	if w.status != http.StatusOK {
		b.Fatalf("miss: status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/matchmake", strings.NewReader(memoizedAnswer)))
	}
}

// TestUnencodablePlanFailsFlight: a plan whose Glinda decision carries
// NaN cannot be encoded, so its flight fails with 500 internal and is
// forgotten, instead of answering 200 without the plan.
func TestUnencodablePlanFailsFlight(t *testing.T) {
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	lib := heteropart.NewRunner(heteropart.RunnerConfig{Workers: 1})
	pl, _, err := lib.PlanContext(context.Background(),
		specFor(t, svc, `{"app":"BlackScholes","n":16384,"strategy":"SP-Single"}`))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := pl.Decisions[""]
	if !ok {
		t.Fatalf("SP-Single plan has no Glinda decision: %v", pl.Decisions)
	}
	bad := *pl
	bad.Decisions = maps.Clone(pl.Decisions)
	d.R = math.NaN()
	bad.Decisions[""] = d
	if _, err := responseOf(nil, &bad, nil); err == nil {
		t.Fatal("responseOf encoded a plan carrying NaN")
	}

	rec := httptest.NewRecorder()
	svc.serve(rec, httptest.NewRequest("POST", "/v1/plan", nil), &Request{}, "plan|nan",
		func(context.Context) (*Response, error) { return responseOf(nil, &bad, nil) })
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error == nil || env.Error.Code != CodeInternal {
		t.Fatalf("status %d, body %s, want 500 %s", rec.Code, rec.Body.Bytes(), CodeInternal)
	}
	if n := svc.flights.Len(); n != 0 {
		t.Errorf("%d flights kept after an encode failure, want it forgotten", n)
	}
}

// TestHostileCalibrationRefused: reports whose factors would zero or
// overflow every priced duration are refused with 400, and the
// platform's answers stay those of the uncalibrated model.
func TestHostileCalibrationRefused(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	const body = `{"app":"BlackScholes","n":16384}`
	status, before := rawRequest(t, "POST", ts.URL+"/v1/matchmake", body)
	if status != http.StatusOK {
		t.Fatalf("matchmake: status %d\n%s", status, before)
	}
	for _, factor := range []float64{1e300, 1e-300} {
		// Marshaled directly: report.JSON validates, and would refuse.
		rb, err := json.Marshal(&heteropart.CalibrationReport{
			Version: 1, App: "BlackScholes",
			Platform: heteropart.PlatformFingerprint(heteropart.PaperPlatform(0)),
			Scales:   []heteropart.CostScale{{Device: 0, Factor: factor}, {Device: 1, Factor: factor}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cal, _ := json.Marshal(map[string]any{"calibration": json.RawMessage(rb)})
		status, _, eb := postJSON(t, ts.URL+"/v1/calibrate", string(cal))
		if status != http.StatusBadRequest {
			t.Errorf("factor %g: calibrate status %d (%+v), want 400", factor, status, eb)
		}
	}
	status, after := rawRequest(t, "POST", ts.URL+"/v1/matchmake", body)
	if status != http.StatusOK || !bytes.Equal(after, before) {
		t.Errorf("matchmake after refused reports: status %d, answer changed\nbefore: %s\nafter:  %s", status, before, after)
	}
}

// TestCalibrateForeignDeviceIsPlatformInvalid: a report that binds to
// the platform but scales a device it lacks answers 400
// platform_invalid, and the platform's answers keep their
// calibration-free plan.
func TestCalibrateForeignDeviceIsPlatformInvalid(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	plat, err := heteropart.PlatformByName("tri-asym-p2p", 0)
	if err != nil {
		t.Fatal(err)
	}
	report := fmt.Sprintf(`{"version":1,"app":"BlackScholes","platform":%q,"scales":[{"kernel":"black_scholes","device":7,"factor":2}]}`,
		heteropart.PlatformFingerprint(plat))
	status, _, eb := postJSON(t, ts.URL+"/v1/calibrate", `{"platform":"tri-asym-p2p","calibration":`+report+`}`)
	if status != http.StatusBadRequest || eb == nil || eb.Code != CodePlatformInvalid {
		t.Errorf("calibrate: status %d (%+v), want 400 %s", status, eb, CodePlatformInvalid)
	}
	status, resp, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"BlackScholes","n":4096,"platform":"tri-asym-p2p"}`)
	if status != http.StatusOK {
		t.Fatalf("matchmake: status %d (%+v)", status, eb)
	}
	if bytes.Contains(resp.Plan, []byte("+cost=")) {
		t.Errorf("refused report still calibrates the platform's plans: %s", resp.Plan)
	}
}

// TestHostileSizesAnswer400: a run on any device that would end past
// the last representable virtual time, sizes whose element or byte
// counts overflow, a trip count past the cap, a plan past the
// task-instance cap, a size Cholesky cannot tile and a Cholesky DAG
// past the phase cap answer 400 options_invalid at once, and the one
// worker then serves an honest body.
func TestHostileSizesAnswer400(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	for _, body := range []string{
		`{"app":"BlackScholes","strategy":"Only-CPU","n":2000000000000000000,"timeout_ms":1000}`,
		`{"app":"BlackScholes","strategy":"SP-Single","n":2000000000000000000,"timeout_ms":1000}`,
		`{"app":"Nbody","strategy":"Only-CPU","n":500000000000000000,"timeout_ms":1000}`,
		`{"app":"Nbody","strategy":"Only-GPU","n":500000000000000000,"timeout_ms":1000}`,
		`{"app":"Nbody","strategy":"SP-Single","n":500000000000000000,"timeout_ms":1000}`,
		`{"app":"STREAM-Loop","strategy":"DP-Perf","iters":65536,"chunks":65536}`,
		`{"app":"Cholesky","n":131072}`,
		`{"app":"MatrixMul","n":2000000000,"strategy":"SP-Single"}`,
		`{"app":"MatrixMul","n":4000000000,"strategy":"SP-Single"}`,
		`{"app":"Triangular","n":3000000000,"strategy":"DP-Perf"}`,
		`{"app":"STREAM-Loop","iters":65537}`,
		`{"app":"Cholesky","n":1100}`,
	} {
		status, _, eb := postJSON(t, ts.URL+"/v1/matchmake", body)
		if status != http.StatusBadRequest || eb.Code != CodeOptionsInvalid {
			t.Errorf("%s: %d %+v, want 400 %s", body, status, eb, CodeOptionsInvalid)
		}
	}
	if status, _, eb := postJSON(t, ts.URL+"/v1/matchmake", `{"app":"MatrixMul","n":128,"timeout_ms":3000}`); status != http.StatusOK {
		t.Fatalf("honest body after the hostile ones: %d %+v", status, eb)
	}
}

// TestCalibrateRefusalsAreBadRequest: a report the decoder refuses,
// whatever the reason, answers 400 bad_request.
func TestCalibrateRefusalsAreBadRequest(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	fp := heteropart.PlatformFingerprint(heteropart.PaperPlatform(0))
	for name, report := range map[string]string{
		"version":        `{"version":2,"platform":"` + fp + `","scales":[{"device":1,"factor":1.5}]}`,
		"no scales":      `{"version":1,"platform":"` + fp + `","scales":[]}`,
		"no fingerprint": `{"version":1,"scales":[{"device":1,"factor":1.5}]}`,
		"decode":         `{"version":"1"}`,
	} {
		status, _, eb := postJSON(t, ts.URL+"/v1/calibrate", `{"calibration":`+report+`}`)
		if status != http.StatusBadRequest || eb == nil || eb.Code != CodeBadRequest {
			t.Errorf("%s: status %d (%+v), want 400 %s", name, status, eb, CodeBadRequest)
		}
	}
}
