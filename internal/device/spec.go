package device

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"heteropart/internal/apierr"
	"heteropart/internal/sim"
)

// SpecVersion is the PlatformSpec serialization format version.
const SpecVersion = 1

// Spec is the JSON-serializable description of a platform: the
// catalog entry format, the payload of `hetsim -platform-in`, and the
// body of GET /v1/platforms entries. Models are referenced by catalog
// name; links are inline numbers or catalog names. A spec is data —
// Validate checks it describes a usable machine and ToPlatform
// instantiates it.
type Spec struct {
	Version int `json:"version"`
	// Name labels the platform (catalog key for bundled specs).
	Name string `json:"name"`
	// Host describes device 0.
	Host HostSpec `json:"host"`
	// Accels describe devices 1..n in order.
	Accels []AccelSpec `json:"accels"`
	// P2P lists optional direct accelerator↔accelerator edges.
	P2P []P2PSpec `json:"p2p,omitempty"`
	// Cost selects the cost model; nil means roofline.
	Cost *CostSpec `json:"cost,omitempty"`
}

// HostSpec names the host CPU and its worker-thread count.
type HostSpec struct {
	// Model is a catalog model name of kind CPU (ModelNames).
	Model string `json:"model"`
	// Threads is the SMP worker count m; 0 selects the model's
	// hardware thread count.
	Threads int `json:"threads,omitempty"`
}

// AccelSpec names one accelerator and its host attachment.
type AccelSpec struct {
	// Model is a catalog model name of a non-CPU kind.
	Model string `json:"model"`
	// Link is the host attachment.
	Link LinkSpec `json:"link"`
	// Bus optionally names a shared host bus; accelerators naming the
	// same bus contend for one link-resource set.
	Bus string `json:"bus,omitempty"`
}

// LinkSpec is a link by catalog name or by inline numbers. A non-empty
// Name wins; otherwise the numeric fields describe the link directly.
type LinkSpec struct {
	Name      string  `json:"name,omitempty"`
	HtoDGBps  float64 `json:"htod_gbps,omitempty"`
	DtoHGBps  float64 `json:"dtoh_gbps,omitempty"`
	LatencyNs int64   `json:"latency_ns,omitempty"`
	Duplex    bool    `json:"duplex,omitempty"`
}

// P2PSpec is one peer edge between accelerator IDs A and B (1-based).
type P2PSpec struct {
	A    int      `json:"a"`
	B    int      `json:"b"`
	Link LinkSpec `json:"link"`
}

// CostSpec selects and parameterizes a cost model.
type CostSpec struct {
	// Model is "roofline" (default) or "calibrated".
	Model string `json:"model"`
	// Scales are the calibration (calibrated model only, at least one).
	Scales []Scale `json:"scales,omitempty"`
}

// modelCatalog maps spec model names to the datasheet catalog.
var modelCatalog = map[string]func() Model{
	"xeon-e5-2620":   XeonE5_2620,
	"tesla-k20m":     TeslaK20m,
	"xeon-phi-5110p": XeonPhi5110P,
	"gtx-680":        GTX680,
}

// linkCatalog maps spec link names to the attachment catalog.
var linkCatalog = map[string]func() Link{
	"pcie2x16": PCIeGen2x16,
	"pcie3x16": PCIeGen3x16,
}

// ModelNames lists the catalog model names, sorted.
func ModelNames() []string {
	out := make([]string, 0, len(modelCatalog))
	for n := range modelCatalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// invalidPlatform tags a spec failure with ErrPlatformInvalid once.
func invalidPlatform(format string, args ...any) error {
	return fmt.Errorf("%w: %s", apierr.ErrPlatformInvalid, fmt.Sprintf(format, args...))
}

// The bounds on an inline link's figures: bandwidth finite and at
// least MinLinkGBps in each direction, latency within [0,
// MaxLinkLatencyNs]. A slower link prices one transfer past what a
// virtual duration can hold, and a negative latency schedules a
// transfer in the past.
const (
	MinLinkGBps      = 1e-3
	MaxLinkLatencyNs = 1e9
)

// resolve turns a LinkSpec into a Link. Inline figures must lie within
// the link bounds; catalog links do.
func (l LinkSpec) resolve() (Link, error) {
	if l.Name != "" {
		mk, ok := linkCatalog[l.Name]
		if !ok {
			return Link{}, fmt.Errorf("unknown link %q", l.Name)
		}
		return mk(), nil
	}
	if !within(l.HtoDGBps, MinLinkGBps, math.MaxFloat64) || !within(l.DtoHGBps, MinLinkGBps, math.MaxFloat64) {
		return Link{}, fmt.Errorf("link bandwidth %g/%g GB/s is not finite and at least %g",
			l.HtoDGBps, l.DtoHGBps, MinLinkGBps)
	}
	if l.LatencyNs < 0 || l.LatencyNs > MaxLinkLatencyNs {
		return Link{}, fmt.Errorf("link latency %d ns is outside [0, %d]", l.LatencyNs, int64(MaxLinkLatencyNs))
	}
	return Link{
		HtoDGBps: l.HtoDGBps, DtoHGBps: l.DtoHGBps,
		Latency: sim.Duration(l.LatencyNs), Duplex: l.Duplex,
	}, nil
}

// Validate checks the spec describes a usable machine: a known CPU
// host, at least one device, every accelerator a known non-CPU model
// reachable over a known link or one within the inline-link bounds
// (MinLinkGBps, MaxLinkLatencyNs), P2P edges between existing distinct
// devices over such links, and a known cost model whose scales, if
// calibrated, pass ValidateScales. Failures wrap
// apierr.ErrPlatformInvalid.
func (s *Spec) Validate() error {
	if s == nil {
		return invalidPlatform("nil spec")
	}
	if s.Version != SpecVersion {
		return invalidPlatform("unsupported spec version %d (want %d)", s.Version, SpecVersion)
	}
	if s.Host.Model == "" && len(s.Accels) == 0 {
		return invalidPlatform("platform %q has zero devices", s.Name)
	}
	mk, ok := modelCatalog[s.Host.Model]
	if !ok {
		return invalidPlatform("platform %q: unknown host model %q (have %v)", s.Name, s.Host.Model, ModelNames())
	}
	if m := mk(); m.Kind != CPU {
		return invalidPlatform("platform %q: host model %q is not a CPU", s.Name, s.Host.Model)
	}
	if s.Host.Threads < 0 {
		return invalidPlatform("platform %q: negative host threads %d", s.Name, s.Host.Threads)
	}
	for i, a := range s.Accels {
		mk, ok := modelCatalog[a.Model]
		if !ok {
			return invalidPlatform("platform %q: accel %d: unknown model %q (have %v)", s.Name, i+1, a.Model, ModelNames())
		}
		if m := mk(); m.Kind == CPU {
			return invalidPlatform("platform %q: accel %d: model %q is a CPU", s.Name, i+1, a.Model)
		}
		if _, err := a.Link.resolve(); err != nil {
			return invalidPlatform("platform %q: accel %d (%s): %v", s.Name, i+1, a.Model, err)
		}
	}
	for _, e := range s.P2P {
		if e.A < 1 || e.A > len(s.Accels) || e.B < 1 || e.B > len(s.Accels) {
			return invalidPlatform("platform %q: p2p edge %d-%d references a device the platform does not have", s.Name, e.A, e.B)
		}
		if e.A == e.B {
			return invalidPlatform("platform %q: p2p edge %d-%d is a self-loop", s.Name, e.A, e.B)
		}
		if _, err := e.Link.resolve(); err != nil {
			return invalidPlatform("platform %q: p2p edge %d-%d: %v", s.Name, e.A, e.B, err)
		}
	}
	if s.Cost != nil {
		switch s.Cost.Model {
		case "", "roofline":
			if len(s.Cost.Scales) > 0 {
				return invalidPlatform("platform %q: cost scales require the calibrated model", s.Name)
			}
		case "calibrated":
			if err := ValidateScales(s.Cost.Scales, 1+len(s.Accels)); err != nil {
				return fmt.Errorf("platform %q: %w", s.Name, err)
			}
		default:
			return invalidPlatform("platform %q: unknown cost model %q", s.Name, s.Cost.Model)
		}
	}
	return nil
}

// ToPlatform validates the spec and instantiates it. threads > 0
// overrides the spec's host thread count (the hetsim -m knob).
func (s *Spec) ToPlatform(threads int) (*Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = s.Host.Threads
	}
	atts := make([]Attachment, 0, len(s.Accels))
	for _, a := range s.Accels {
		l, _ := a.Link.resolve() // validated above
		atts = append(atts, Attachment{Model: modelCatalog[a.Model](), Link: l, Bus: a.Bus})
	}
	p, err := NewPlatform(modelCatalog[s.Host.Model](), threads, atts...)
	if err != nil {
		return nil, invalidPlatform("platform %q: %v", s.Name, err)
	}
	for _, e := range s.P2P {
		l, _ := e.Link.resolve()
		p.P2P = append(p.P2P, P2PEdge{A: e.A, B: e.B, Link: l})
	}
	if s.Cost != nil && s.Cost.Model == "calibrated" {
		p.Scales = append([]Scale(nil), s.Cost.Scales...)
	}
	if err := p.Validate(); err != nil {
		return nil, invalidPlatform("platform %q: %v", s.Name, err)
	}
	return p, nil
}

// Fingerprint renders the identity of the platform the spec
// instantiates (with its own thread count).
func (s *Spec) Fingerprint() (string, error) {
	p, err := s.ToPlatform(0)
	if err != nil {
		return "", err
	}
	return p.Fingerprint(), nil
}

// JSON renders the spec as stable, human-readable JSON: fixed field
// order, trailing newline. SpecFromJSON ∘ JSON is the identity.
func (s *Spec) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("device: encode platform spec: %w", err)
	}
	return append(out, '\n'), nil
}

// SpecFromJSON decodes and validates a serialized PlatformSpec.
// Decode and validation failures wrap apierr.ErrPlatformInvalid.
func SpecFromJSON(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, invalidPlatform("decode platform spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// PlatformFromJSON decodes, validates and instantiates a platform
// spec in one step; threads > 0 overrides the spec's thread count.
func PlatformFromJSON(data []byte, threads int) (*Platform, error) {
	s, err := SpecFromJSON(data)
	if err != nil {
		return nil, err
	}
	return s.ToPlatform(threads)
}

// Bundled platform catalog: the paper's testbed plus the extension
// topologies the multi-accelerator tests and examples use.
func catalogSpecs() []*Spec {
	return []*Spec{
		{
			Version: SpecVersion,
			Name:    "paper",
			Host:    HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{
				{Model: "tesla-k20m", Link: LinkSpec{Name: "pcie2x16"}},
			},
		},
		{
			Version: SpecVersion,
			Name:    "dual-gpu-bus",
			Host:    HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{
				{Model: "gtx-680", Link: LinkSpec{Name: "pcie3x16"}, Bus: "pcie0"},
				{Model: "gtx-680", Link: LinkSpec{Name: "pcie3x16"}, Bus: "pcie0"},
			},
		},
		{
			Version: SpecVersion,
			Name:    "tri-asym-p2p",
			Host:    HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{
				{Model: "tesla-k20m", Link: LinkSpec{Name: "pcie2x16"}},
				{Model: "xeon-phi-5110p", Link: LinkSpec{Name: "pcie3x16"}},
			},
			P2P: []P2PSpec{
				{A: 1, B: 2, Link: LinkSpec{HtoDGBps: 10, DtoHGBps: 10, LatencyNs: 5000, Duplex: true}},
			},
		},
	}
}

// SpecNames lists the bundled platform catalog names, sorted.
func SpecNames() []string {
	specs := catalogSpecs()
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// SpecByName returns the bundled platform spec with the given name.
// Unknown names wrap apierr.ErrPlatformInvalid.
func SpecByName(name string) (*Spec, error) {
	for _, s := range catalogSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, invalidPlatform("unknown platform %q (have %v)", name, SpecNames())
}

// ByName instantiates a bundled catalog platform; threads > 0
// overrides the spec's host thread count.
func ByName(name string, threads int) (*Platform, error) {
	s, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return s.ToPlatform(threads)
}
