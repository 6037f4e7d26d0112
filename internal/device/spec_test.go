package device

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteropart/internal/apierr"
)

// TestSpecRoundTripByteStable pins the PlatformSpec serialization:
// JSON ∘ SpecFromJSON ∘ JSON is the identity for every catalog entry,
// and the bundled example files under examples/platforms/ are exactly
// the catalog's canonical bytes (regenerate with `make platforms` if
// the catalog changes).
func TestSpecRoundTripByteStable(t *testing.T) {
	for _, name := range SpecNames() {
		t.Run(name, func(t *testing.T) {
			spec, err := SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			first, err := spec.JSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := SpecFromJSON(first)
			if err != nil {
				t.Fatalf("decode own encoding: %v", err)
			}
			second, err := back.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("round trip is not byte-stable:\nfirst:\n%s\nsecond:\n%s", first, second)
			}
			example := filepath.Join("..", "..", "examples", "platforms", name+".json")
			bundled, err := os.ReadFile(example)
			if err != nil {
				t.Fatalf("bundled example missing: %v", err)
			}
			if !bytes.Equal(bundled, first) {
				t.Errorf("%s does not match the catalog's canonical encoding", example)
			}
		})
	}
}

// TestPaperSpecMatchesLegacyPlatform is the compatibility keystone:
// the "paper" catalog entry instantiates a platform whose fingerprint
// is byte-identical to the hard-wired PaperPlatform constructor, so
// plans, cache keys and flight bundles minted before the platform
// catalog existed stay valid.
func TestPaperSpecMatchesLegacyPlatform(t *testing.T) {
	for _, m := range []int{0, 1, 12} {
		got, err := ByName("paper", m)
		if err != nil {
			t.Fatal(err)
		}
		want := PaperPlatform(m)
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("m=%d: catalog fingerprint %q != legacy %q", m, got.Fingerprint(), want.Fingerprint())
		}
	}
	fp := PaperPlatform(12).Fingerprint()
	for _, seg := range []string{"/bus=", "+p2p=", "+cost="} {
		if strings.Contains(fp, seg) {
			t.Errorf("paper fingerprint %q contains non-default segment %q", fp, seg)
		}
	}
}

// TestFingerprintPinned pins the fingerprint string itself: it keys
// every cache and gates plan replay, so its rendering may not drift.
func TestFingerprintPinned(t *testing.T) {
	paper := "Intel Xeon E5-2620/m=12/384.0/42.6+Nvidia Tesla K20m/3519.3/208.0/link=6.0:6.0:10000:true"
	gtx := "Nvidia GTX 680/3090.4/192.2/link=12.0:12.0:8000:true"
	want := map[string]string{
		"paper":        paper,
		"dual-gpu-bus": "Intel Xeon E5-2620/m=12/384.0/42.6+" + gtx + "/bus=pcie0+" + gtx + "/bus=pcie0",
		"tri-asym-p2p": paper + "+Intel Xeon Phi 5110P/2022.0/320.0/link=12.0:12.0:8000:true+p2p=1-2:10.0:10.0:5000:true",
	}
	for _, name := range SpecNames() {
		p, err := ByName(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Fingerprint(); got != want[name] {
			t.Errorf("%s: fingerprint %q, want %q", name, got, want[name])
		}
	}

	calibrated := PaperPlatform(12).WithCost(&Calibrated{Scales: []Scale{
		{Kernel: "k", Device: 1, Factor: 1.25}, {Device: -1, Factor: 0.5},
	}})
	if got, want := calibrated.Fingerprint(), paper+"+cost=calibrated[:-1:0.5,k:1:1.25]"; got != want {
		t.Errorf("calibrated: fingerprint %q, want %q", got, want)
	}

	p2p, err := NewPlatform(XeonE5_2620(), 12,
		Attachment{Model: GTX680(), Link: PCIeGen3x16()},
		Attachment{Model: GTX680(), Link: PCIeGen3x16()},
	)
	if err != nil {
		t.Fatal(err)
	}
	p2p.P2P = []P2PEdge{{A: 2, B: 1, Link: Link{HtoDGBps: 10, DtoHGBps: 7.25, Latency: 1500}}}
	if got, want := p2p.Fingerprint(), "Intel Xeon E5-2620/m=12/384.0/42.6+"+gtx+"+"+gtx+"+p2p=2-1:10.0:7.2:1500:false"; got != want {
		t.Errorf("p2p: fingerprint %q, want %q", got, want)
	}
}

// TestFingerprintDiscrimination checks that topology and cost-model
// variations that change simulated behavior also change the platform
// fingerprint — the identity behind plan replay gating and every
// cache key.
func TestFingerprintDiscrimination(t *testing.T) {
	fps := map[string]string{}
	for _, name := range SpecNames() {
		p, err := ByName(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		fp := p.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Errorf("platforms %q and %q share fingerprint %q", prev, name, fp)
		}
		fps[fp] = name
	}

	base, err := ByName("dual-gpu-bus", 12)
	if err != nil {
		t.Fatal(err)
	}
	// Same accelerators without the shared bus: contention differs, so
	// the fingerprint must too.
	noBus, err := NewPlatform(XeonE5_2620(), 12,
		Attachment{Model: GTX680(), Link: PCIeGen3x16()},
		Attachment{Model: GTX680(), Link: PCIeGen3x16()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == noBus.Fingerprint() {
		t.Errorf("shared bus does not discriminate: %q", base.Fingerprint())
	}

	// A P2P edge changes routing, so it must change the fingerprint.
	withP2P, err := NewPlatform(XeonE5_2620(), 12,
		Attachment{Model: GTX680(), Link: PCIeGen3x16()},
		Attachment{Model: GTX680(), Link: PCIeGen3x16()},
	)
	if err != nil {
		t.Fatal(err)
	}
	withP2P.P2P = []P2PEdge{{A: 1, B: 2, Link: Link{HtoDGBps: 10, DtoHGBps: 10, Duplex: true}}}
	if withP2P.Fingerprint() == noBus.Fingerprint() {
		t.Errorf("p2p edge does not discriminate: %q", noBus.Fingerprint())
	}

	// A calibrated cost model prices differently, so it must change the
	// fingerprint; the roofline default must not.
	calibrated := PaperPlatform(12)
	calibrated.Cost = &Calibrated{Scales: []Scale{{Kernel: "dgemm", Device: 1, Factor: 1.2}}}
	if calibrated.Fingerprint() == PaperPlatform(12).Fingerprint() {
		t.Error("calibrated cost model does not discriminate")
	}
	roofline := PaperPlatform(12)
	roofline.Cost = Roofline{}
	if roofline.Fingerprint() != PaperPlatform(12).Fingerprint() {
		t.Error("explicit roofline changed the fingerprint (must stay the legacy identity)")
	}
}

// TestSpecValidateDegenerate walks the degenerate-platform taxonomy:
// every rejection must wrap apierr.ErrPlatformInvalid so the service
// maps it to 400.
func TestSpecValidateDegenerate(t *testing.T) {
	k20 := func() AccelSpec { return AccelSpec{Model: "tesla-k20m", Link: LinkSpec{Name: "pcie2x16"}} }
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero devices", Spec{Version: SpecVersion}},
		{"bad version", Spec{Version: 99, Host: HostSpec{Model: "xeon-e5-2620"}}},
		{"unknown host model", Spec{Version: SpecVersion, Host: HostSpec{Model: "mystery-cpu"}}},
		{"gpu as host", Spec{Version: SpecVersion, Host: HostSpec{Model: "tesla-k20m"}}},
		{"negative threads", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620", Threads: -1}}},
		{"cpu as accel", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{{Model: "xeon-e5-2620", Link: LinkSpec{Name: "pcie2x16"}}}}},
		{"unknown accel model", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{{Model: "tpu-v9", Link: LinkSpec{Name: "pcie2x16"}}}}},
		{"unknown link", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{{Model: "tesla-k20m", Link: LinkSpec{Name: "carrier-pigeon"}}}}},
		{"unreachable accel", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{{Model: "tesla-k20m", Link: LinkSpec{HtoDGBps: 0, DtoHGBps: 6.1}}}}},
		{"dangling p2p", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20()},
			P2P:    []P2PSpec{{A: 1, B: 2, Link: LinkSpec{HtoDGBps: 10, DtoHGBps: 10}}}}},
		{"self-loop p2p", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20()},
			P2P:    []P2PSpec{{A: 1, B: 1, Link: LinkSpec{HtoDGBps: 10, DtoHGBps: 10}}}}},
		{"zero-bandwidth p2p", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20(), k20()},
			P2P:    []P2PSpec{{A: 1, B: 2, Link: LinkSpec{}}}}},
		{"unknown cost model", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20()}, Cost: &CostSpec{Model: "crystal-ball"}}},
		{"scales on roofline", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20()}, Cost: &CostSpec{Model: "roofline", Scales: []Scale{{Factor: 2}}}}},
		{"nonpositive scale factor", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20()}, Cost: &CostSpec{Model: "calibrated", Scales: []Scale{{Factor: 0}}}}},
		{"scale targets missing device", Spec{Version: SpecVersion, Host: HostSpec{Model: "xeon-e5-2620"},
			Accels: []AccelSpec{k20()}, Cost: &CostSpec{Model: "calibrated", Scales: []Scale{{Device: 7, Factor: 2}}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted a degenerate platform")
			}
			if !errors.Is(err, apierr.ErrPlatformInvalid) {
				t.Errorf("error %v does not wrap ErrPlatformInvalid", err)
			}
			if _, perr := c.spec.ToPlatform(0); perr == nil {
				t.Error("ToPlatform instantiated a degenerate platform")
			}
		})
	}
}

// TestWithoutRenumbersLinkGraph removes an accelerator from a
// three-accel platform with a shared bus and a P2P edge: survivor IDs
// shift down, the bus assignment follows its device, edges touching
// the lost device disappear, and surviving edges are renumbered.
func TestWithoutRenumbersLinkGraph(t *testing.T) {
	p, err := NewPlatform(XeonE5_2620(), 12,
		Attachment{Model: TeslaK20m(), Link: PCIeGen2x16()},
		Attachment{Model: GTX680(), Link: PCIeGen3x16(), Bus: "pcie0"},
		Attachment{Model: GTX680(), Link: PCIeGen3x16(), Bus: "pcie0"},
	)
	if err != nil {
		t.Fatal(err)
	}
	p.P2P = []P2PEdge{
		{A: 1, B: 2, Link: Link{HtoDGBps: 8, DtoHGBps: 8, Duplex: true}},
		{A: 2, B: 3, Link: Link{HtoDGBps: 10, DtoHGBps: 10, Duplex: true}},
	}

	q, err := p.Without(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Accels) != 2 {
		t.Fatalf("survivors = %d, want 2", len(q.Accels))
	}
	if q.BusOf(1) != "pcie0" || q.BusOf(2) != "pcie0" {
		t.Errorf("bus assignments did not follow their devices: %v", q.Buses)
	}
	// Edge 1-2 touched the removed device and must be gone; edge 2-3
	// must have become 1-2.
	if len(q.P2P) != 1 || q.P2P[0].A != 1 || q.P2P[0].B != 2 {
		t.Fatalf("P2P after removal = %+v, want the surviving edge renumbered to 1-2", q.P2P)
	}
	if _, _, ok := q.P2PLinkOf(1, 2); !ok {
		t.Error("renumbered edge is not routable")
	}
	if q.P2P[0].Link.HtoDGBps != 10 {
		t.Errorf("renumbered edge carries the wrong link: %+v", q.P2P[0].Link)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("renumbered platform fails validation: %v", err)
	}

	// Removing the last accelerator drops its bus and its edges.
	r, err := p.Without(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.P2P) != 1 || r.P2P[0].A != 1 || r.P2P[0].B != 2 {
		t.Fatalf("P2P after removing 3 = %+v, want only edge 1-2", r.P2P)
	}
	if r.BusOf(1) != "" || r.BusOf(2) != "pcie0" {
		t.Errorf("bus assignments wrong after removing 3: %v", r.Buses)
	}
}
