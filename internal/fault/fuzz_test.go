package fault_test

import (
	"bytes"
	"errors"
	"testing"

	"heteropart/internal/apierr"
	"heteropart/internal/fault"
	"heteropart/internal/runner"
	"heteropart/internal/sim"
)

// FuzzScheduleFromJSON decodes arbitrary bytes as a fault schedule. A
// refusal must wrap ErrFaultInvalid. An accepted schedule must encode
// to bytes that decode and re-encode identically, and must carry
// BlackScholes at n = 4096 under SP-Single through the runner to an
// error wrapping ErrFaultInjected or to a finite, positive makespan
// with no negative device busy time. The last two seeds are a
// slowdown and a transfer stall that overflowed virtual time.
func FuzzScheduleFromJSON(f *testing.F) {
	const head = `{"version":1,"seed":1,"faults":[`
	for _, faults := range []string{
		`{"kind":"slowdown","device":1,"factor":2,"after":1}`,
		`{"kind":"jitter","device":-1,"amplitude":0.3}`,
		`{"kind":"transfer_stall","device":1,"extra_ns":5000,"after_ns":1000}`,
		`{"kind":"transfer_fail","device":1}`,
		`{"kind":"chunk_crash","kernel":"black_scholes","after":3}`,
		`{"kind":"device_loss","device":1,"after":1}`,
		`{"kind":"profile_noise","device":-1,"amplitude":0.5}`,
		`{"kind":"slowdown","device":0,"factor":3},{"kind":"jitter","device":1,"amplitude":0.9},{"kind":"transfer_stall","device":-1,"extra_ns":100}`,
		`{"kind":"slowdown","device":-1,"factor":1e18}`,
		`{"kind":"transfer_stall","device":1,"extra_ns":9223372036854775807}`,
	} {
		f.Add([]byte(head + faults + `]}`))
	}
	r := runner.New(runner.Config{Workers: 1, DisableCache: true})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := fault.FromJSON(data)
		if err != nil {
			if !errors.Is(err, apierr.ErrFaultInvalid) {
				t.Fatalf("refusal does not wrap ErrFaultInvalid: %v", err)
			}
			return
		}
		enc, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := fault.FromJSON(enc)
		if err != nil {
			t.Fatalf("an accepted schedule's encoding is refused: %v\n%s", err, enc)
		}
		if enc2, err := again.JSON(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding does not round-trip (%v):\n%s\nvs\n%s", err, enc, enc2)
		}
		res, err := r.Run(runner.Spec{App: "BlackScholes", Strategy: "SP-Single", N: 4096, Fault: s})
		if err != nil {
			if !errors.Is(err, apierr.ErrFaultInjected) {
				t.Fatalf("run failed without an injected fault: %v", err)
			}
			return
		}
		out := res.Outcome.Result
		if out.Makespan <= 0 || out.Makespan >= sim.MaxTime {
			t.Fatalf("makespan %d ns is not finite and positive", int64(out.Makespan))
		}
		for dev, busy := range out.DeviceBusy {
			if busy < 0 {
				t.Fatalf("device %d busy %d ns", dev, int64(busy))
			}
		}
	})
}
