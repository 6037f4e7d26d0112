// Package device models the processing units of a heterogeneous platform
// and the interconnect between them.
//
// Each device is described by peak capability numbers (as a vendor
// datasheet would list them — compare Table III of the paper) and a
// roofline-style cost evaluator turns (flops, bytes) work descriptors
// into virtual execution times. Application-specific efficiency factors
// express how close a given kernel gets to peak on a given device kind.
package device

import (
	"fmt"

	"heteropart/internal/sim"
)

// Kind discriminates the classes of processing units the runtime knows.
type Kind int

const (
	// CPU is a latency-oriented multicore host processor.
	CPU Kind = iota
	// GPU is a throughput-oriented accelerator with its own memory.
	GPU
	// Accel is a generic many-core accelerator (e.g. a Xeon-Phi-like
	// device), used by the multi-accelerator extension.
	Accel
)

// String returns the conventional lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case Accel:
		return "accel"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Precision selects which peak-FLOPS figure applies to a kernel.
type Precision int

const (
	// SP is IEEE-754 single precision.
	SP Precision = iota
	// DP is IEEE-754 double precision.
	DP
)

// String returns "sp" or "dp".
func (p Precision) String() string {
	if p == DP {
		return "dp"
	}
	return "sp"
}

// Model is the datasheet description of a processing unit.
type Model struct {
	Name    string
	Kind    Kind
	FreqGHz float64

	// Cores is the number of hardware cores (CPU) or streaming
	// multiprocessors (GPU).
	Cores int
	// HWThreads is the number of hardware threads (CPU with SMT);
	// zero means equal to Cores.
	HWThreads int

	PeakSPGFLOPS float64
	PeakDPGFLOPS float64
	// MemBWGBps is the peak bandwidth of the device's own memory.
	MemBWGBps     float64
	MemCapacityGB float64

	// WarpSize is the scheduling granularity of the device; static
	// partitions assigned to it are rounded up to a multiple of this
	// (paper footnote 5). Zero means no rounding constraint.
	WarpSize int

	// LaunchOverhead is the fixed cost of starting one kernel/task
	// instance on the device (driver call, task dispatch).
	LaunchOverhead sim.Duration
}

// Threads returns the number of schedulable hardware threads.
func (m *Model) Threads() int {
	if m.HWThreads > 0 {
		return m.HWThreads
	}
	return m.Cores
}

// PeakGFLOPS returns the peak for the given precision.
func (m *Model) PeakGFLOPS(p Precision) float64 {
	if p == DP {
		return m.PeakDPGFLOPS
	}
	return m.PeakSPGFLOPS
}

// Efficiency expresses how close a particular kernel comes to a device's
// peak numbers: achieved = eff × peak. Values are in (0, 1].
type Efficiency struct {
	Compute float64
	Memory  float64
}

// Valid reports whether both factors are usable.
func (e Efficiency) Valid() bool {
	return e.Compute > 0 && e.Compute <= 1 && e.Memory > 0 && e.Memory <= 1
}

// DefaultEfficiency is assumed when an application does not calibrate a
// kernel for a device kind.
var DefaultEfficiency = Efficiency{Compute: 0.5, Memory: 0.6}

// Work describes the resource demand of one task-instance execution.
type Work struct {
	// Flops is the floating-point operation count.
	Flops float64
	// Bytes is the device-memory traffic (reads + writes).
	Bytes float64
	// Precision selects the peak-FLOPS figure.
	Precision Precision
}

// Device is a concrete processing unit instantiated on a platform.
type Device struct {
	Model
	// ID is the platform-unique identifier; the host CPU is always 0.
	ID int
	// Share divides the device's peaks among concurrent executors:
	// a CPU running m worker threads gives each thread peak/Share.
	// 1 for devices that run one instance at a time (GPU).
	Share int
}

// String identifies the device for traces.
func (d *Device) String() string { return fmt.Sprintf("%s#%d(%s)", d.Kind, d.ID, d.Name) }

// perShare returns the fraction of peak available to one concurrent
// executor.
func (d *Device) shareDiv() float64 {
	if d.Share <= 1 {
		return 1
	}
	return float64(d.Share)
}

// execTime evaluates the roofline model for one executor given div,
// the number of concurrent executors splitting the device's peaks:
//
//	t = max( flops / (effC·peakFLOPS/div), bytes / (effM·peakBW/div) )
//
// plus the device's fixed launch overhead. A zero-work instance still
// pays the launch overhead.
func (d *Device) execTime(w Work, eff Efficiency, div float64) sim.Duration {
	if !eff.Valid() {
		eff = DefaultEfficiency
	}
	var tc, tm float64
	if w.Flops > 0 {
		peak := d.PeakGFLOPS(w.Precision) * 1e9 / div
		tc = w.Flops / (eff.Compute * peak)
	}
	if w.Bytes > 0 {
		bw := d.MemBWGBps * 1e9 / div
		tm = w.Bytes / (eff.Memory * bw)
	}
	t := tc
	if tm > t {
		t = tm
	}
	return d.LaunchOverhead.Add(sim.DurationOf(t))
}

// RoundUpWarp rounds n up to a multiple of the device's warp size,
// without exceeding max. Devices without a warp constraint return n.
func (d *Device) RoundUpWarp(n, max int64) int64 {
	if d.WarpSize <= 1 || n <= 0 {
		return clamp(n, 0, max)
	}
	w := int64(d.WarpSize)
	r := (n + w - 1) / w * w
	return clamp(r, 0, max)
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Link models a host↔device interconnect (one PCIe attachment).
type Link struct {
	// HtoDGBps and DtoHGBps are effective bandwidths per direction.
	HtoDGBps float64
	DtoHGBps float64
	// Latency is the fixed per-transfer setup cost.
	Latency sim.Duration
	// Duplex indicates the two directions transfer concurrently.
	Duplex bool
}

// TransferTime returns the virtual duration of moving n bytes one way.
func (l Link) TransferTime(bytes int64, hostToDev bool) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	bw := l.DtoHGBps
	if hostToDev {
		bw = l.HtoDGBps
	}
	if bw <= 0 {
		return sim.MaxTime
	}
	return l.Latency.Add(sim.DurationOf(float64(bytes) / (bw * 1e9)))
}
