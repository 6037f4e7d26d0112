package device

import (
	"fmt"
	"strconv"

	"heteropart/internal/sim"
)

// The catalog reproduces Table III of the paper plus a few extension
// models used by the multi-accelerator experiments. Peak numbers are the
// datasheet values the paper lists; launch overheads and link bandwidths
// are calibrated to typical measurements for the named parts (OpenCL
// kernel launch on Kepler ≈ 8 µs; PCIe 2.0 ×16 effective ≈ 6 GB/s).

// XeonE5_2620 is the host CPU of the paper's platform: 6 cores (12
// hardware threads with Hyper-Threading), 2.0 GHz.
func XeonE5_2620() Model {
	return Model{
		Name:           "Intel Xeon E5-2620",
		Kind:           CPU,
		FreqGHz:        2.0,
		Cores:          6,
		HWThreads:      12,
		PeakSPGFLOPS:   384.0,
		PeakDPGFLOPS:   192.0,
		MemBWGBps:      42.6,
		MemCapacityGB:  64,
		WarpSize:       0,
		LaunchOverhead: 2 * sim.Microsecond,
	}
}

// TeslaK20m is the paper's accelerator: 13 SMX, 2496 CUDA cores,
// 705 MHz.
func TeslaK20m() Model {
	return Model{
		Name:           "Nvidia Tesla K20m",
		Kind:           GPU,
		FreqGHz:        0.705,
		Cores:          13, // SMX count; 2496 CUDA cores
		PeakSPGFLOPS:   3519.3,
		PeakDPGFLOPS:   1173.1,
		MemBWGBps:      208.0,
		MemCapacityGB:  5,
		WarpSize:       32,
		LaunchOverhead: 8 * sim.Microsecond,
	}
}

// PCIeGen2x16 is the K20m's host attachment: 8 GB/s theoretical,
// ~6 GB/s effective with pinned memory.
func PCIeGen2x16() Link {
	return Link{
		HtoDGBps: 6.0,
		DtoHGBps: 6.0,
		Latency:  10 * sim.Microsecond,
		Duplex:   true,
	}
}

// XeonPhi5110P is an extension model for the "other accelerators" future
// work: 60 cores at 1.053 GHz.
func XeonPhi5110P() Model {
	return Model{
		Name:           "Intel Xeon Phi 5110P",
		Kind:           Accel,
		FreqGHz:        1.053,
		Cores:          60,
		HWThreads:      240,
		PeakSPGFLOPS:   2022.0,
		PeakDPGFLOPS:   1011.0,
		MemBWGBps:      320.0,
		MemCapacityGB:  8,
		WarpSize:       16, // vector width granularity
		LaunchOverhead: 12 * sim.Microsecond,
	}
}

// GTX680 is a consumer Kepler part used by platform-sensitivity
// experiments (strong SP, weak DP).
func GTX680() Model {
	return Model{
		Name:           "Nvidia GTX 680",
		Kind:           GPU,
		FreqGHz:        1.006,
		Cores:          8,
		PeakSPGFLOPS:   3090.4,
		PeakDPGFLOPS:   128.8,
		MemBWGBps:      192.2,
		MemCapacityGB:  2,
		WarpSize:       32,
		LaunchOverhead: 6 * sim.Microsecond,
	}
}

// PCIeGen3x16 is a faster host link for extension platforms.
func PCIeGen3x16() Link {
	return Link{
		HtoDGBps: 12.0,
		DtoHGBps: 12.0,
		Latency:  8 * sim.Microsecond,
		Duplex:   true,
	}
}

// Attachment pairs an accelerator with its host link.
type Attachment struct {
	Model Model
	Link  Link
	// Bus optionally names the shared host bus the link rides on.
	// Accelerators naming the same bus contend for one set of link
	// resources (their transfers serialize against each other); an
	// empty name keeps the default dedicated attachment.
	Bus string
}

// P2PEdge is an optional direct accelerator↔accelerator link. With an
// edge present, device-to-device transfers between A and B take the
// edge in one hop instead of staging through host memory. Direction
// A→B prices with the link's HtoD figures, B→A with DtoH.
type P2PEdge struct {
	// A and B are accelerator IDs (1-based); A < B by convention.
	A, B int
	Link Link
}

// Platform is a host CPU plus zero or more attached accelerators,
// joined by a link graph and priced by the roofline bound times its
// calibration scales (ExecCost). The zero values of the optional
// fields (nil Buses/P2P/Scales) reproduce the paper's implicit
// topology — dedicated host links, no peer edges, roofline pricing —
// byte-for-byte.
type Platform struct {
	// Host is device 0, the CPU.
	Host *Device
	// Accels are devices 1..n in attachment order.
	Accels []*Device
	// Links[i] connects Accels[i] to the host.
	Links []Link
	// Buses[i] names the shared bus Links[i] rides on ("" = dedicated).
	// Nil means every attachment is dedicated.
	Buses []string
	// P2P holds the direct accelerator↔accelerator edges, if any.
	P2P []P2PEdge
	// Scales calibrate the roofline price per (kernel, device); nil
	// means the paper's roofline. Platforms are shared across
	// concurrent runs, so the slice is never modified once set.
	Scales []Scale
}

// NewPlatform builds a platform. cpuThreads is the number of SMP worker
// threads m the runtime will use on the host (the paper varies m as a
// multiple of core count and uses the best); it becomes the host
// device's Share so each worker sees peak/m. cpuThreads <= 0 defaults to
// the CPU's hardware thread count.
func NewPlatform(cpu Model, cpuThreads int, accels ...Attachment) (*Platform, error) {
	if cpu.Kind != CPU {
		return nil, fmt.Errorf("device: host must be a CPU, got %v", cpu.Kind)
	}
	if cpuThreads <= 0 {
		cpuThreads = cpu.Threads()
	}
	p := &Platform{
		Host: &Device{Model: cpu, ID: 0, Share: cpuThreads},
	}
	anyBus := false
	for i, a := range accels {
		if a.Model.Kind == CPU {
			return nil, fmt.Errorf("device: accelerator %d (%s) cannot be of kind CPU", i+1, a.Model.Name)
		}
		p.Accels = append(p.Accels, &Device{Model: a.Model, ID: i + 1, Share: 1})
		p.Links = append(p.Links, a.Link)
		if a.Bus != "" {
			anyBus = true
		}
	}
	if anyBus {
		p.Buses = make([]string, len(accels))
		for i, a := range accels {
			p.Buses[i] = a.Bus
		}
	}
	return p, nil
}

// PaperPlatform reproduces the evaluation platform of Table III with m
// CPU worker threads (m <= 0 selects the 12 hardware threads).
func PaperPlatform(cpuThreads int) *Platform {
	// The catalog models are compile-time constants of the right kinds,
	// so construction cannot fail.
	p, _ := NewPlatform(XeonE5_2620(), cpuThreads, Attachment{Model: TeslaK20m(), Link: PCIeGen2x16()})
	return p
}

// Devices returns all devices, host first.
func (p *Platform) Devices() []*Device {
	out := make([]*Device, 0, 1+len(p.Accels))
	out = append(out, p.Host)
	out = append(out, p.Accels...)
	return out
}

// Device returns the device with the given platform ID, or nil when no
// such device exists (callers validate IDs before dereferencing).
func (p *Platform) Device(id int) *Device {
	if id == 0 {
		return p.Host
	}
	if id >= 1 && id <= len(p.Accels) {
		return p.Accels[id-1]
	}
	return nil
}

// LinkOf returns the host link of the accelerator with the given
// platform ID, or the zero Link (no bandwidth) when the ID names no
// accelerator.
func (p *Platform) LinkOf(id int) Link {
	if id >= 1 && id <= len(p.Links) {
		return p.Links[id-1]
	}
	return Link{}
}

// BusOf returns the name of the shared bus the accelerator's host
// link rides on, or "" for a dedicated attachment (the default).
func (p *Platform) BusOf(id int) string {
	if id >= 1 && id <= len(p.Buses) {
		return p.Buses[id-1]
	}
	return ""
}

// P2PLinkOf returns the direct link between accelerators a and b, if
// one exists. forward reports the edge's stored direction: true when
// the edge is (a→b) as asked (price with HtoD figures), false when it
// is the reverse edge (price with DtoH). Edges are symmetric in
// reachability, directional only in bandwidth figures.
func (p *Platform) P2PLinkOf(a, b int) (l Link, forward, ok bool) {
	for _, e := range p.P2P {
		if e.A == a && e.B == b {
			return e.Link, true, true
		}
		if e.A == b && e.B == a {
			return e.Link, false, true
		}
	}
	return Link{}, false, false
}

// CPUThreads reports the number of host worker threads m.
func (p *Platform) CPUThreads() int { return p.Host.Share }

// Fingerprint renders the platform's identity from its contents:
// device models, thread count, link characteristics, and — only when
// present — bus topology, peer edges, and calibration scales.
// The paper platform (and every pre-topology platform) renders
// exactly as it did before the platform layer became pluggable, so
// existing plans, cache keys and bundles stay valid.
func (p *Platform) Fingerprint() string {
	b := make([]byte, 0, 256)
	b = append(b, p.Host.Name...)
	b = append(b, "/m="...)
	b = strconv.AppendInt(b, int64(p.Host.Share), 10)
	b = appendTenth(append(b, '/'), p.Host.PeakSPGFLOPS)
	b = appendTenth(append(b, '/'), p.Host.MemBWGBps)
	for _, a := range p.Accels {
		b = append(append(b, '+'), a.Name...)
		b = appendTenth(append(b, '/'), a.PeakSPGFLOPS)
		b = appendTenth(append(b, '/'), a.MemBWGBps)
		b = appendLink(append(b, "/link="...), p.LinkOf(a.ID))
		if bus := p.BusOf(a.ID); bus != "" {
			b = append(append(b, "/bus="...), bus...)
		}
	}
	for _, e := range p.P2P {
		b = strconv.AppendInt(append(b, "+p2p="...), int64(e.A), 10)
		b = strconv.AppendInt(append(b, '-'), int64(e.B), 10)
		b = appendLink(append(b, ':'), e.Link)
	}
	if len(p.Scales) > 0 {
		b = append(appendScales(append(b, "+cost=calibrated["...), p.Scales), ']')
	}
	return string(b)
}

// appendTenth renders x to one decimal place, as %.1f does.
func appendTenth(b []byte, x float64) []byte {
	return strconv.AppendFloat(b, x, 'f', 1, 64)
}

// appendLink renders a link for the fingerprint: both bandwidths, the
// latency and whether it is duplex, colon-separated.
func appendLink(b []byte, l Link) []byte {
	b = appendTenth(b, l.HtoDGBps)
	b = appendTenth(append(b, ':'), l.DtoHGBps)
	b = strconv.AppendInt(append(b, ':'), int64(l.Latency), 10)
	return strconv.AppendBool(append(b, ':'), l.Duplex)
}

// Validate checks the platform describes a usable machine. Violations
// are reported by the spec layer wrapping apierr.ErrPlatformInvalid;
// this method returns plain errors so the device package stays
// dependency-free.
func (p *Platform) Validate() error {
	if p == nil || p.Host == nil {
		return fmt.Errorf("platform has no devices (nil host)")
	}
	if p.Host.Kind != CPU {
		return fmt.Errorf("host device must be a CPU, got %v", p.Host.Kind)
	}
	if p.Host.Share <= 0 {
		return fmt.Errorf("host thread count m=%d must be positive", p.Host.Share)
	}
	if len(p.Links) != len(p.Accels) {
		return fmt.Errorf("platform has %d accelerators but %d links", len(p.Accels), len(p.Links))
	}
	if p.Buses != nil && len(p.Buses) != len(p.Accels) {
		return fmt.Errorf("platform has %d accelerators but %d bus entries", len(p.Accels), len(p.Buses))
	}
	for i, a := range p.Accels {
		if a.ID != i+1 {
			return fmt.Errorf("accelerator %d has ID %d (IDs must be contiguous from 1)", i+1, a.ID)
		}
		if a.Kind == CPU {
			return fmt.Errorf("accelerator %d (%s) cannot be of kind CPU", a.ID, a.Name)
		}
		l := p.Links[i]
		if l.HtoDGBps <= 0 || l.DtoHGBps <= 0 {
			return fmt.Errorf("accelerator %d (%s) is unreachable: host link has zero bandwidth (%.1f/%.1f GB/s)",
				a.ID, a.Name, l.HtoDGBps, l.DtoHGBps)
		}
	}
	for _, e := range p.P2P {
		if e.A < 1 || e.A > len(p.Accels) || e.B < 1 || e.B > len(p.Accels) {
			return fmt.Errorf("p2p edge %d-%d references a device the platform does not have", e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("p2p edge %d-%d is a self-loop", e.A, e.B)
		}
		if e.Link.HtoDGBps <= 0 || e.Link.DtoHGBps <= 0 {
			return fmt.Errorf("p2p edge %d-%d has zero bandwidth (%.1f/%.1f GB/s)",
				e.A, e.B, e.Link.HtoDGBps, e.Link.DtoHGBps)
		}
	}
	return nil
}

// Without returns a copy of the platform with the accelerator of the
// given ID removed: the survivors renumber contiguously (IDs above the
// removed one shift down by one, keeping the 1..n invariant every
// layer assumes), and the link graph and calibration renumber in
// lockstep — the removed device's bus entry disappears, P2P edges and
// scales naming it are dropped, and surviving ones re-point at the
// shifted IDs. The host cannot be removed. The original platform is
// untouched — devices are copied, so a degraded platform never
// aliases the one a plan was decided for.
func (p *Platform) Without(id int) (*Platform, error) {
	if id < 1 || id > len(p.Accels) {
		return nil, fmt.Errorf("device: platform has no accelerator %d to remove", id)
	}
	host := *p.Host
	out := &Platform{Host: &host}
	anyBus := false
	for i, a := range p.Accels {
		if a.ID == id {
			continue
		}
		d := *a
		d.ID = len(out.Accels) + 1
		out.Accels = append(out.Accels, &d)
		out.Links = append(out.Links, p.Links[i])
		if p.BusOf(a.ID) != "" {
			anyBus = true
		}
	}
	if anyBus {
		out.Buses = make([]string, 0, len(out.Accels))
		for _, a := range p.Accels {
			if a.ID == id {
				continue
			}
			out.Buses = append(out.Buses, p.BusOf(a.ID))
		}
	}
	shift := func(v int) int {
		if v > id {
			return v - 1
		}
		return v
	}
	for _, e := range p.P2P {
		if e.A == id || e.B == id {
			continue
		}
		out.P2P = append(out.P2P, P2PEdge{A: shift(e.A), B: shift(e.B), Link: e.Link})
	}
	for _, s := range p.Scales {
		if s.Device == id {
			continue
		}
		s.Device = shift(s.Device)
		out.Scales = append(out.Scales, s)
	}
	return out, nil
}

// WithScales returns a shallow copy of the platform priced with
// scales (nil = the paper's roofline). Devices, links and topology are
// shared — they are immutable after construction — so the copy is
// cheap and the original platform (and every plan bound to its
// fingerprint) is untouched. The copy keeps scales itself; the caller
// must not modify it afterwards.
func (p *Platform) WithScales(scales []Scale) *Platform {
	q := *p
	q.Scales = scales
	return &q
}

// Uncalibrated returns the platform without its scales. Its
// fingerprint is the calibration-free identity a CalibrationReport
// binds to: two calibrations of the same machine share it, so
// superseding one calibration with another is never a staleness
// violation.
func (p *Platform) Uncalibrated() *Platform {
	if len(p.Scales) == 0 {
		return p
	}
	return p.WithScales(nil)
}

// String summarizes the platform for reports.
func (p *Platform) String() string {
	s := fmt.Sprintf("%s (m=%d)", p.Host.Name, p.Host.Share)
	for _, a := range p.Accels {
		s += " + " + a.Name
	}
	return s
}
