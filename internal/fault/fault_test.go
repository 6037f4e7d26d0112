package fault

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"heteropart/internal/apierr"
)

func validSchedule() *Schedule {
	return &Schedule{
		Version: ScheduleVersion,
		Seed:    42,
		Faults: []Fault{
			{Kind: KindSlowdown, Device: 1, Factor: 2},
			{Kind: KindJitter, Device: AnyDevice, Amplitude: 0.25},
			{Kind: KindTransferStall, Device: 1, ExtraNs: 1000},
			{Kind: KindTransferFail, Device: 2, After: 3},
			{Kind: KindChunkCrash, Kernel: "saxpy", After: 5},
			{Kind: KindDeviceLoss, Device: 2, After: 10, AfterNs: 500},
			{Kind: KindProfileNoise, Device: AnyDevice, Amplitude: 0.1},
		},
	}
}

func TestScheduleJSONRoundTripByteStable(t *testing.T) {
	s := validSchedule()
	b1, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	s2, err := FromJSON(b1)
	if err != nil {
		t.Fatalf("FromJSON: %v", err)
	}
	b2, err := s2.JSON()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	if s.Canonical() != s2.Canonical() {
		t.Fatalf("canonical differs after round trip")
	}
}

func TestCanonicalDiscriminates(t *testing.T) {
	var nilSched *Schedule
	if got := nilSched.Canonical(); got != "-" {
		t.Fatalf("nil canonical = %q, want \"-\"", got)
	}
	a := validSchedule()
	b := validSchedule()
	b.Seed++
	if a.Canonical() == b.Canonical() {
		t.Fatalf("seed change did not change canonical encoding")
	}
	c := validSchedule()
	c.Faults[0].Factor = 3
	if a.Canonical() == c.Canonical() {
		t.Fatalf("factor change did not change canonical encoding")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Schedule)
		want string
	}{
		{"bad version", func(s *Schedule) { s.Version = 99 }, "version"},
		{"no faults", func(s *Schedule) { s.Faults = nil }, "no faults"},
		{"unknown kind", func(s *Schedule) { s.Faults[0].Kind = "meteor" }, "unknown kind"},
		{"slowdown factor < 1", func(s *Schedule) { s.Faults[0].Factor = 0.5 }, "factor"},
		{"jitter amplitude >= 1", func(s *Schedule) { s.Faults[1].Amplitude = 1 }, "amplitude"},
		{"negative after", func(s *Schedule) { s.Faults[0].After = -1 }, "non-negative"},
		{"stall without extra", func(s *Schedule) { s.Faults[2].ExtraNs = 0 }, "extra_ns"},
		{"stall on host", func(s *Schedule) { s.Faults[2].Device = 0 }, "accelerator"},
		{"fail on host", func(s *Schedule) { s.Faults[3].Device = 0 }, "accelerator"},
		{"loss of host", func(s *Schedule) { s.Faults[5].Device = 0 }, "host cannot be lost"},
		{"device below any", func(s *Schedule) { s.Faults[0].Device = -2 }, "unknown device"},
		{"slowdown overflowing virtual time", func(s *Schedule) { s.Faults[0].Factor = 1e18 }, "multiplier"},
		// 800 alone is in bounds; with the jitter and profile noise
		// aimed at every device it compounds to 1100.
		{"compounded multiplier", func(s *Schedule) { s.Faults[0].Factor = 800 }, "multiplier"},
		{"stall overflowing virtual time", func(s *Schedule) { s.Faults[2].ExtraNs = math.MaxInt64 }, "stalls"},
		{"stall sum", func(s *Schedule) {
			s.Faults[2].ExtraNs = 6e8
			s.Faults = append(s.Faults, Fault{Kind: KindTransferStall, Device: 2, ExtraNs: 6e8})
		}, "stalls"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSchedule()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !errors.Is(err, apierr.ErrFaultInvalid) {
				t.Fatalf("error %v does not wrap ErrFaultInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsBounds: the bounds are inclusive and per device,
// so multipliers aimed at different devices do not compound.
func TestValidateAcceptsBounds(t *testing.T) {
	s := &Schedule{Version: ScheduleVersion, Faults: []Fault{
		{Kind: KindSlowdown, Device: 1, Factor: 1e3},
		{Kind: KindSlowdown, Device: 2, Factor: 500},
		{Kind: KindJitter, Device: 2, Amplitude: 0.5},
		{Kind: KindTransferStall, Device: AnyDevice, ExtraNs: 1e9},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule at the bounds refused: %v", err)
	}
}

func TestFromJSONRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "{", "[1,2]", `{"version":1,"faults":[{"kind":7}]}`} {
		if _, err := FromJSON([]byte(in)); err == nil {
			t.Fatalf("FromJSON accepted %q", in)
		} else if !errors.Is(err, apierr.ErrFaultInvalid) {
			t.Fatalf("FromJSON(%q) error %v does not wrap ErrFaultInvalid", in, err)
		}
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	const amp = 0.3
	seen := make(map[float64]bool)
	for seq := int64(0); seq < 200; seq++ {
		f1 := noiseFactor(7, 0, 1, seq, amp)
		f2 := noiseFactor(7, 0, 1, seq, amp)
		if f1 != f2 {
			t.Fatalf("noiseFactor not deterministic at seq %d: %v vs %v", seq, f1, f2)
		}
		if f1 < 1-amp || f1 >= 1+amp {
			t.Fatalf("noiseFactor %v outside [%v, %v)", f1, 1-amp, 1+amp)
		}
		seen[f1] = true
	}
	if len(seen) < 150 {
		t.Fatalf("noise draws suspiciously repetitive: %d distinct of 200", len(seen))
	}
	if noiseFactor(7, 0, 1, 0, amp) == noiseFactor(8, 0, 1, 0, amp) {
		t.Fatalf("seed does not change the draw")
	}
	if noiseFactor(7, 0, 1, 0, amp) == noiseFactor(7, 1, 1, 0, amp) {
		t.Fatalf("fault index does not change the draw")
	}
	if noiseFactor(7, 0, 1, 0, amp) == noiseFactor(7, 0, 2, 0, amp) {
		t.Fatalf("device does not change the draw")
	}
}

func TestInjectorOrderIndependence(t *testing.T) {
	// The jitter draw for (device, occurrence) must not depend on how
	// events on other devices interleave.
	s := &Schedule{Version: 1, Seed: 3, Faults: []Fault{{Kind: KindJitter, Device: AnyDevice, Amplitude: 0.2}}}
	a := NewInjector(s, ScopeExecute)
	b := NewInjector(s, ScopeExecute)

	// a: dev1, dev1, dev2; b: dev2, dev1, dev1 — per-device draws must agree.
	a1a, _ := a.ExecStart(0, 1, "k")
	a1b, _ := a.ExecStart(0, 1, "k")
	a2a, _ := a.ExecStart(0, 2, "k")

	b2a, _ := b.ExecStart(0, 2, "k")
	b1a, _ := b.ExecStart(0, 1, "k")
	b1b, _ := b.ExecStart(0, 1, "k")

	if a1a != b1a || a1b != b1b || a2a != b2a {
		t.Fatalf("jitter draws depend on interleaving: %v/%v/%v vs %v/%v/%v",
			a1a, a1b, a2a, b1a, b1b, b2a)
	}
}

func TestInjectorSlowdownGates(t *testing.T) {
	s := &Schedule{Version: 1, Faults: []Fault{{Kind: KindSlowdown, Device: 1, Factor: 3, After: 2, AfterNs: 100}}}
	inj := NewInjector(s, ScopeExecute)
	if f, _ := inj.ExecStart(200, 0, "k"); f != 1 {
		t.Fatalf("slowdown leaked onto untargeted device: %v", f)
	}
	// Occurrences 0 and 1 are before the After threshold.
	if f, _ := inj.ExecStart(200, 1, "k"); f != 1 {
		t.Fatalf("occurrence 0 slowed: %v", f)
	}
	if f, _ := inj.ExecStart(200, 1, "k"); f != 1 {
		t.Fatalf("occurrence 1 slowed: %v", f)
	}
	if f, _ := inj.ExecStart(200, 1, "k"); f != 3 {
		t.Fatalf("occurrence 2 factor = %v, want 3", f)
	}
	// Time gate: a fresh injector at t < AfterNs stays clean even past
	// the occurrence threshold.
	inj2 := NewInjector(s, ScopeExecute)
	for i := 0; i < 5; i++ {
		if f, _ := inj2.ExecStart(50, 1, "k"); f != 1 {
			t.Fatalf("slowdown fired before AfterNs: %v", f)
		}
	}
}

func TestInjectorCrashAndTransferFail(t *testing.T) {
	s := &Schedule{Version: 1, Faults: []Fault{
		{Kind: KindChunkCrash, Kernel: "saxpy", After: 1},
		{Kind: KindTransferFail, Device: 1, After: 0},
	}}
	inj := NewInjector(s, ScopeExecute)
	if _, err := inj.ExecStart(0, 1, "other"); err != nil {
		t.Fatalf("crash fired for wrong kernel: %v", err)
	}
	if _, err := inj.ExecStart(0, 1, "saxpy"); err != nil {
		t.Fatalf("crash fired at occurrence 0: %v", err)
	}
	_, err := inj.ExecStart(0, 2, "saxpy")
	if err == nil {
		t.Fatalf("crash did not fire at occurrence 1")
	}
	if !errors.Is(err, apierr.ErrFaultInjected) {
		t.Fatalf("crash error %v does not wrap ErrFaultInjected", err)
	}
	if errors.Is(err, apierr.ErrDeviceLost) {
		t.Fatalf("crash error %v claims device loss", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Kernel != "saxpy" || ce.Device != 2 {
		t.Fatalf("crash error carries wrong detail: %+v", ce)
	}

	_, terr := inj.TransferStart(0, 1)
	if terr == nil {
		t.Fatalf("transfer_fail did not fire at occurrence 0")
	}
	if !errors.Is(terr, apierr.ErrFaultInjected) {
		t.Fatalf("transfer error %v does not wrap ErrFaultInjected", terr)
	}
	if _, err := inj.TransferStart(0, 2); err != nil {
		t.Fatalf("transfer_fail leaked onto untargeted device: %v", err)
	}
}

func TestInjectorDeviceLoss(t *testing.T) {
	s := &Schedule{Version: 1, Faults: []Fault{{Kind: KindDeviceLoss, Device: 1, After: 2}}}
	inj := NewInjector(s, ScopeExecute)
	// Two successful uses: one chunk, one transfer.
	if _, err := inj.ExecStart(0, 1, "k"); err != nil {
		t.Fatalf("use 0 failed: %v", err)
	}
	if _, err := inj.TransferStart(0, 1); err != nil {
		t.Fatalf("use 1 failed: %v", err)
	}
	_, err := inj.ExecStart(10, 1, "k")
	if err == nil {
		t.Fatalf("device loss did not fire on use 2")
	}
	if !errors.Is(err, apierr.ErrDeviceLost) || !errors.Is(err, apierr.ErrFaultInjected) {
		t.Fatalf("loss error %v does not wrap both sentinels", err)
	}
	var dl *DeviceLostError
	if !errors.As(err, &dl) || dl.Device != 1 || dl.AtNs != 10 {
		t.Fatalf("loss error carries wrong detail: %+v", dl)
	}
	// Latched: all later uses fail too.
	if _, err := inj.TransferStart(20, 1); err == nil {
		t.Fatalf("lost device accepted a transfer")
	}
	// Other devices are unaffected.
	if _, err := inj.ExecStart(20, 2, "k"); err != nil {
		t.Fatalf("loss leaked onto device 2: %v", err)
	}
}

func TestInjectorProfileScope(t *testing.T) {
	s := &Schedule{Version: 1, Seed: 9, Faults: []Fault{
		{Kind: KindSlowdown, Device: AnyDevice, Factor: 10},
		{Kind: KindChunkCrash, After: 99},
		{Kind: KindDeviceLoss, Device: 1, After: 99},
		{Kind: KindProfileNoise, Device: AnyDevice, Amplitude: 0.2},
	}}
	prof := NewInjector(s, ScopeProfile)
	f, err := prof.ExecStart(0, 1, "k")
	if err != nil {
		t.Fatalf("profile scope fired an execution fault: %v", err)
	}
	if f == 1 || f < 0.8 || f >= 1.2 {
		t.Fatalf("profile noise factor %v outside (0.8, 1.2) or inert", f)
	}
	if extra, err := prof.TransferStart(0, 1); extra != 0 || err != nil {
		t.Fatalf("profile scope perturbed a transfer: %v, %v", extra, err)
	}

	exec := NewInjector(s, ScopeExecute)
	// profile_noise is inert in execute scope: device 2 sees only the
	// slowdown.
	if f, _ := exec.ExecStart(0, 2, "other"); f != 10 {
		t.Fatalf("execute scope factor = %v, want 10 (profile noise must be inert)", f)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	if f, err := inj.ExecStart(0, 1, "k"); f != 1 || err != nil {
		t.Fatalf("nil ExecStart = %v, %v", f, err)
	}
	if extra, err := inj.TransferStart(0, 1); extra != 0 || err != nil {
		t.Fatalf("nil TransferStart = %v, %v", extra, err)
	}
	if inj.Schedule() != nil {
		t.Fatalf("nil Schedule() non-nil")
	}
	if NewInjector(nil, ScopeExecute) != nil {
		t.Fatalf("NewInjector(nil) non-nil")
	}
}

func TestWithoutDevice(t *testing.T) {
	s := &Schedule{Version: 1, Seed: 5, Faults: []Fault{
		{Kind: KindSlowdown, Device: 1, Factor: 2},
		{Kind: KindDeviceLoss, Device: 2},
		{Kind: KindTransferStall, Device: 3, ExtraNs: 100},
		{Kind: KindChunkCrash, Kernel: "k", After: 1},
		{Kind: KindJitter, Device: AnyDevice, Amplitude: 0.1},
	}}
	out := s.WithoutDevice(2)
	if out == nil {
		t.Fatalf("WithoutDevice dropped everything")
	}
	if len(out.Faults) != 4 {
		t.Fatalf("got %d faults, want 4: %+v", len(out.Faults), out.Faults)
	}
	if out.Faults[0].Device != 1 {
		t.Fatalf("device 1 fault moved: %+v", out.Faults[0])
	}
	if out.Faults[1].Kind != KindTransferStall || out.Faults[1].Device != 2 {
		t.Fatalf("device 3 fault not renumbered to 2: %+v", out.Faults[1])
	}
	if out.Faults[3].Device != AnyDevice {
		t.Fatalf("AnyDevice fault renumbered: %+v", out.Faults[3])
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("renumbered schedule invalid: %v", err)
	}

	// Losing the only targeted device leaves nothing: nil.
	solo := &Schedule{Version: 1, Faults: []Fault{{Kind: KindDeviceLoss, Device: 1}}}
	if solo.WithoutDevice(1) != nil {
		t.Fatalf("schedule with no remaining faults should collapse to nil")
	}
	var nilSched *Schedule
	if nilSched.WithoutDevice(1) != nil {
		t.Fatalf("nil.WithoutDevice non-nil")
	}
}

func TestHasKind(t *testing.T) {
	s := validSchedule()
	if !s.HasKind(KindDeviceLoss) || s.HasKind("meteor") {
		t.Fatalf("HasKind wrong")
	}
	var nilSched *Schedule
	if nilSched.HasKind(KindJitter) {
		t.Fatalf("nil HasKind true")
	}
}
