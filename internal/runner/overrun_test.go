package runner

import (
	"errors"
	"testing"
	"time"

	"heteropart/internal/apierr"
)

// failsTypedWithin runs spec on a fresh one-worker runner and requires
// it to fail with ErrOptionsInvalid within 10 s.
func failsTypedWithin(t *testing.T, spec Spec) {
	t.Helper()
	r := New(Config{Workers: 1})
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(spec)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, apierr.ErrOptionsInvalid) {
			t.Errorf("%s at n = %d: %v, want ErrOptionsInvalid", spec, spec.N, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s at n = %d: run still going after 10 s", spec, spec.N)
	}
}

// TestHostOverrunFailsTyped: host work that would finish past the last
// representable virtual time fails at once with ErrOptionsInvalid. It
// used to spin forever: the processor-sharing timer's wait overflowed
// to a negative duration, which the engine clamped to now.
func TestHostOverrunFailsTyped(t *testing.T) {
	for _, strat := range []string{"Only-CPU", "SP-Single"} {
		failsTypedWithin(t, Spec{App: "BlackScholes", Strategy: strat, N: 2_000_000_000_000_000_000})
	}
}

// TestDeviceOverrunFailsTyped: a chunk priced past the last
// representable virtual time fails with ErrOptionsInvalid on every
// device. Nbody at n = 5·10^17 used to report a zero makespan under
// Only-CPU and SP-Single, and an untyped scheduling error under
// Only-GPU: adding the launch overhead to the saturated chunk time
// wrapped negative.
func TestDeviceOverrunFailsTyped(t *testing.T) {
	for _, strat := range []string{"Only-CPU", "Only-GPU", "SP-Single", "DP-Perf"} {
		failsTypedWithin(t, Spec{App: "Nbody", Strategy: strat, N: 500_000_000_000_000_000})
	}
}
