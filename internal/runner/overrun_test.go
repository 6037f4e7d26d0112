package runner

import (
	"errors"
	"testing"
	"time"

	"heteropart/internal/apierr"
)

// TestHostOverrunFailsTyped: host work that would finish past the last
// representable virtual time fails at once with ErrOptionsInvalid. It
// used to spin forever: the processor-sharing timer's wait overflowed
// to a negative duration, which the engine clamped to now.
func TestHostOverrunFailsTyped(t *testing.T) {
	for _, strat := range []string{"Only-CPU", "SP-Single"} {
		r := New(Config{Workers: 1})
		done := make(chan error, 1)
		go func() {
			_, err := r.Run(Spec{App: "BlackScholes", Strategy: strat, N: 2_000_000_000_000_000_000})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, apierr.ErrOptionsInvalid) {
				t.Errorf("%s: %v, want ErrOptionsInvalid", strat, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: run still going after 10 s", strat)
		}
	}
}
