package device

import (
	"math"
	"testing"
	"testing/quick"

	"heteropart/internal/sim"
)

func almostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" || Accel.String() != "accel" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestPrecisionSelectsPeak(t *testing.T) {
	m := TeslaK20m()
	if m.PeakGFLOPS(SP) != 3519.3 || m.PeakGFLOPS(DP) != 1173.1 {
		t.Fatalf("peaks = %v/%v", m.PeakGFLOPS(SP), m.PeakGFLOPS(DP))
	}
	if SP.String() != "sp" || DP.String() != "dp" {
		t.Fatal("precision names wrong")
	}
}

func TestThreadsDefaultsToCores(t *testing.T) {
	m := TeslaK20m()
	if m.Threads() != m.Cores {
		t.Fatalf("GPU threads = %d, want %d", m.Threads(), m.Cores)
	}
	c := XeonE5_2620()
	if c.Threads() != 12 {
		t.Fatalf("CPU threads = %d, want 12 (HT)", c.Threads())
	}
}

// roofline prices w on d through a platform without scales: the
// paper's roofline bound for one of d's executors.
func roofline(d *Device, w Work, eff Efficiency) sim.Duration {
	return (&Platform{}).ExecCost(d, "k", w, eff)
}

func TestExecTimeComputeBound(t *testing.T) {
	d := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	eff := Efficiency{Compute: 0.5, Memory: 0.5}
	// 1 GFLOP at 50% of 3519.3 GFLOPS ~ 568 us; negligible bytes.
	w := Work{Flops: 1e9, Bytes: 1, Precision: SP}
	got := roofline(d, w, eff) - d.LaunchOverhead
	want := 1e9 / (0.5 * 3519.3e9)
	if !almostEqual(got.Seconds(), want, 1e-6) {
		t.Fatalf("compute-bound time = %v, want %.3gs", got, want)
	}
}

func TestExecTimeMemoryBound(t *testing.T) {
	d := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	eff := Efficiency{Compute: 1, Memory: 0.8}
	// 1 GB at 80% of 208 GB/s; negligible flops.
	w := Work{Flops: 1, Bytes: 1e9, Precision: DP}
	got := roofline(d, w, eff) - d.LaunchOverhead
	want := 1e9 / (0.8 * 208e9)
	if !almostEqual(got.Seconds(), want, 1e-6) {
		t.Fatalf("memory-bound time = %v, want %.3gs", got, want)
	}
}

func TestExecTimeZeroWorkPaysLaunch(t *testing.T) {
	d := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	if got := roofline(d, Work{}, DefaultEfficiency); got != d.LaunchOverhead {
		t.Fatalf("zero work time = %v, want launch overhead %v", got, d.LaunchOverhead)
	}
}

// TestDurationsSaturate: a kernel or transfer priced past the last
// representable virtual time saturates at sim.MaxTime once the launch
// overhead, the link latency or a calibration factor is applied; it
// used to wrap negative.
func TestDurationsSaturate(t *testing.T) {
	d := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	huge := Work{Flops: 1e30, Precision: SP}
	if got := roofline(d, huge, DefaultEfficiency); got != sim.MaxTime {
		t.Errorf("ExecCost of 1e30 flops = %d, want sim.MaxTime", int64(got))
	}
	nearEnd := Work{Flops: 3519.3e9 * 8e9, Precision: SP} // ~8e18 ns at full efficiency
	cal := &Platform{Scales: []Scale{{Device: -1, Factor: 1e3}}}
	if got := cal.ExecCostFull(d, "k", nearEnd, Efficiency{Compute: 1, Memory: 1}); got != sim.MaxTime {
		t.Errorf("calibrated ExecCostFull = %d, want sim.MaxTime", int64(got))
	}
	slow := Link{HtoDGBps: 1e-3, Latency: 10 * sim.Microsecond}
	if got := slow.TransferTime(math.MaxInt64, true); got != sim.MaxTime {
		t.Errorf("TransferTime of MaxInt64 bytes at 1 MB/s = %d, want sim.MaxTime", int64(got))
	}
}

func TestExecTimeInvalidEfficiencyFallsBack(t *testing.T) {
	d := &Device{Model: XeonE5_2620(), ID: 0, Share: 1}
	w := Work{Flops: 1e9, Precision: SP}
	a := roofline(d, w, Efficiency{})
	b := roofline(d, w, DefaultEfficiency)
	if a != b {
		t.Fatalf("invalid efficiency: got %v, want default %v", a, b)
	}
}

func TestShareDividesThroughput(t *testing.T) {
	whole := &Device{Model: XeonE5_2620(), ID: 0, Share: 1}
	perThread := &Device{Model: XeonE5_2620(), ID: 0, Share: 12}
	w := Work{Flops: 1e9, Precision: SP}
	eff := Efficiency{Compute: 0.5, Memory: 0.5}
	tw := (roofline(whole, w, eff) - whole.LaunchOverhead).Seconds()
	tp := (roofline(perThread, w, eff) - perThread.LaunchOverhead).Seconds()
	if !almostEqual(tp, 12*tw, 1e-6) {
		t.Fatalf("per-thread time %v, want 12x whole %v", tp, tw)
	}
}

func TestRoundUpWarp(t *testing.T) {
	g := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	cases := []struct{ n, max, want int64 }{
		{0, 100, 0},
		{1, 100, 32},
		{32, 100, 32},
		{33, 100, 64},
		{95, 100, 96},
		{97, 100, 100}, // clamped to max
		{-5, 100, 0},
	}
	for _, c := range cases {
		if got := g.RoundUpWarp(c.n, c.max); got != c.want {
			t.Errorf("RoundUpWarp(%d,%d) = %d, want %d", c.n, c.max, got, c.want)
		}
	}
	c := &Device{Model: XeonE5_2620(), ID: 0, Share: 1}
	if got := c.RoundUpWarp(33, 100); got != 33 {
		t.Errorf("CPU RoundUpWarp(33) = %d, want 33 (no warp)", got)
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := PCIeGen2x16()
	got := l.TransferTime(6_000_000_000, true)
	want := l.Latency + sim.DurationOf(1.0)
	if got != want {
		t.Fatalf("6GB over 6GB/s = %v, want %v", got, want)
	}
	if l.TransferTime(0, true) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	dead := Link{}
	if dead.TransferTime(1, true) != sim.MaxTime {
		t.Fatal("zero-bandwidth link should saturate")
	}
}

func TestNewPlatformPaper(t *testing.T) {
	p := PaperPlatform(12)
	if p.Host.Kind != CPU || p.Host.ID != 0 || p.Host.Share != 12 {
		t.Fatalf("host = %+v", p.Host)
	}
	if len(p.Accels) != 1 || p.Accels[0].Kind != GPU || p.Accels[0].ID != 1 {
		t.Fatalf("accels = %+v", p.Accels)
	}
	if p.CPUThreads() != 12 {
		t.Fatalf("m = %d, want 12", p.CPUThreads())
	}
	if got := p.Device(1); got != p.Accels[0] {
		t.Fatal("Device(1) is not the GPU")
	}
	if got := p.Device(0); got != p.Host {
		t.Fatal("Device(0) is not the host")
	}
	if p.LinkOf(1).HtoDGBps != 6.0 {
		t.Fatal("link bandwidth wrong")
	}
	if len(p.Devices()) != 2 {
		t.Fatal("Devices() wrong length")
	}
}

func TestNewPlatformDefaultsThreads(t *testing.T) {
	p := PaperPlatform(0)
	if p.CPUThreads() != 12 {
		t.Fatalf("default m = %d, want 12 (HT threads)", p.CPUThreads())
	}
}

func TestNewPlatformRejectsNonCPUHost(t *testing.T) {
	if _, err := NewPlatform(TeslaK20m(), 1); err == nil {
		t.Error("GPU host did not error")
	}
}

func TestNewPlatformRejectsCPUAccel(t *testing.T) {
	if _, err := NewPlatform(XeonE5_2620(), 1, Attachment{Model: XeonE5_2620()}); err == nil {
		t.Error("CPU accelerator did not error")
	}
}

func TestPlatformDeviceOutOfRange(t *testing.T) {
	p := PaperPlatform(12)
	if d := p.Device(5); d != nil {
		t.Errorf("Device(5) = %v, want nil", d)
	}
	if d := p.Device(-1); d != nil {
		t.Errorf("Device(-1) = %v, want nil", d)
	}
	if l := p.LinkOf(5); l != (Link{}) {
		t.Errorf("LinkOf(5) = %v, want the zero link", l)
	}
}

func TestMultiAccelPlatform(t *testing.T) {
	p, err := NewPlatform(XeonE5_2620(), 12,
		Attachment{Model: TeslaK20m(), Link: PCIeGen2x16()},
		Attachment{Model: XeonPhi5110P(), Link: PCIeGen3x16()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Accels) != 2 {
		t.Fatalf("accels = %d, want 2", len(p.Accels))
	}
	if p.Device(2).Kind != Accel {
		t.Fatal("second accel kind wrong")
	}
	if p.LinkOf(2).HtoDGBps != 12.0 {
		t.Fatal("second link wrong")
	}
	if p.String() == "" {
		t.Fatal("empty platform string")
	}
}

// Property: ExecCost is monotone in both flops and bytes.
func TestQuickExecTimeMonotone(t *testing.T) {
	d := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	eff := Efficiency{Compute: 0.7, Memory: 0.7}
	f := func(f1, f2, b1, b2 uint32) bool {
		fa, fb := float64(f1), float64(f1)+float64(f2)
		ba, bb := float64(b1), float64(b1)+float64(b2)
		ta := roofline(d, Work{Flops: fa, Bytes: ba, Precision: SP}, eff)
		tb := roofline(d, Work{Flops: fb, Bytes: bb, Precision: SP}, eff)
		return tb >= ta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: warp rounding returns a multiple of warp size (or the clamp
// bound) and never decreases n.
func TestQuickRoundUpWarp(t *testing.T) {
	g := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	f := func(n uint32, max uint32) bool {
		nn, mm := int64(n), int64(max)
		r := g.RoundUpWarp(nn, mm)
		if r < 0 || r > mm {
			return false
		}
		if nn <= mm && r < nn {
			return false
		}
		return r%32 == 0 || r == mm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The paper's platform ratios: the K20m should beat the Xeon by roughly
// an order of magnitude on compute-bound SP work and by ~5x on bandwidth.
func TestPaperPlatformCapabilityRatios(t *testing.T) {
	// Whole-CPU view: Share=1 gives the full socket's peak to one chunk,
	// which is what m perfectly-parallel threads achieve in aggregate.
	host := &Device{Model: XeonE5_2620(), ID: 0, Share: 1}
	gpu := &Device{Model: TeslaK20m(), ID: 1, Share: 1}
	eff := Efficiency{Compute: 0.6, Memory: 0.6}
	w := Work{Flops: 1e12, Precision: SP}
	ratio := roofline(host, w, eff).Seconds() / roofline(gpu, w, eff).Seconds()
	if ratio < 5 || ratio > 15 {
		t.Fatalf("SP compute ratio GPU/CPU = %.2f, want ~9 (3519.3/384)", ratio)
	}
}
