package service

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"heteropart"
)

// FuzzServiceRequest is the HTTP-boundary fuzz target: arbitrary
// request bodies through decode → validation → spec construction →
// the spec's timing-only problem build, and the plan and calibration
// they carry through their decoders, must
// never panic and must fail only with errors the service maps to a
// status and code of their own (an *httpErr or a facade sentinel) —
// never a bare 500 internal from a malformed body.
func FuzzServiceRequest(f *testing.F) {
	svc := New(Config{Workers: 1, AllowFaults: true})
	f.Cleanup(svc.Close)

	// Honest bodies for every endpoint shape.
	f.Add(`{"app":"MatrixMul","n":128}`)
	f.Add(`{"app":"BlackScholes","strategy":"DP-Perf","n":2048,"iters":2,"sync":"forced","threads":6,"chunks":24,"noseed":true,"timeout_ms":500}`)
	f.Add(`{"structure":"k1(n);sync;k2(n)"}`)
	f.Add(`{"app":"MatrixMul","n":256,"fault":{"version":1,"seed":7,"faults":[{"kind":"slowdown","device":1,"factor":2}]}}`)
	f.Add(`{"app":"MatrixMul","n":256,"fault":{"version":1,"seed":7,"faults":[{"kind":"device_loss","device":1,"after":2}]}}`)
	f.Add(`{"app":"MatrixMul","plan":{"version":1,"app":"MatrixMul"}}`)
	// Hostile bodies.
	f.Add(``)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"app":"MatrixMul","n":-1}`)
	f.Add(`{"app":"MatrixMul","unknown_field":1}`)
	f.Add(`{"app":"MatrixMul","sync":"sometimes"}`)
	f.Add(`{"app":"MatrixMul","threads":99999}`)
	f.Add(`{"app":"MatrixMul","n":9223372036854775807,"chunks":65537}`)
	f.Add(`{"fault":{"version":99}}`)
	f.Add(`{"fault":{"version":1,"seed":1,"faults":[{"kind":"slowdown","factor":0.1}]}}`)
	f.Add(`{"fault":` + strings.Repeat(`{"fault":`, 50) + `}`)
	f.Add(`{"app":"MatrixMul","platform":"nope"}`)
	// /v1/calibrate bodies: valid, wrong version, no scales, a factor
	// outside the bounds.
	report := func(version, scales string) string {
		return fmt.Sprintf(`{"platform":"paper","calibration":{"version":%s,"app":"BlackScholes","platform":%q,"scales":[%s]}}`,
			version, heteropart.PlatformFingerprint(heteropart.PaperPlatform(0)), scales)
	}
	f.Add(report("1", `{"device":1,"factor":1.5}`))
	f.Add(report("2", `{"device":1,"factor":1.5}`))
	f.Add(report("1", ``))
	f.Add(report("1", `{"device":1,"factor":1e300}`))
	// Sizes whose element or byte counts overflow int64.
	f.Add(`{"app":"MatrixMul","n":2000000000,"strategy":"SP-Single"}`)
	f.Add(`{"app":"MatrixMul","n":4000000000,"strategy":"SP-Single"}`)
	f.Add(`{"app":"Triangular","n":3000000000,"strategy":"DP-Perf"}`)

	typed := func(t *testing.T, stage string, err error) {
		t.Helper()
		if status, code := statusCode(err); code == CodeInternal || status < 400 || status > 599 {
			t.Fatalf("%s error %v maps to %d %s", stage, err, status, code)
		}
	}

	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest("POST", "/v1/matchmake", strings.NewReader(body))
		req, err := decodeRequest(r)
		if err != nil {
			typed(t, "decodeRequest", err)
			return
		}
		if spec, err := svc.specOf(req); err != nil {
			typed(t, "specOf", err)
		} else if app, err := heteropart.AppByName(spec.App); err != nil {
			typed(t, "AppByName", err)
		} else if _, err := app.Build(heteropart.Variant{N: spec.N, Iters: spec.Iters, Sync: spec.Sync}); err != nil {
			typed(t, "Build", err)
		}
		if len(req.Plan) > 0 {
			if _, err := heteropart.PlanFromJSON(req.Plan); err != nil {
				typed(t, "PlanFromJSON", err)
			}
		}
		if len(req.Calibration) > 0 {
			if _, err := heteropart.CalibrationFromJSON(req.Calibration); err != nil {
				typed(t, "CalibrationFromJSON", err)
			}
		}
	})
}
