package strategy

import (
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

func triPlatform() *device.Platform {
	p, _ := device.NewPlatform(device.XeonE5_2620(), 12,
		device.Attachment{Model: device.TeslaK20m(), Link: device.PCIeGen2x16()},
		device.Attachment{Model: device.XeonPhi5110P(), Link: device.PCIeGen3x16()},
	)
	return p
}

func TestSPSingleMultiAccelSplitsAcrossAll(t *testing.T) {
	plat := triPlatform()
	app, _ := apps.ByName("BlackScholes")
	p, err := app.Build(apps.Variant{Spaces: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SPSingle{}.Run(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for dev := 0; dev < 3; dev++ {
		if out.Result.ElemsByDevice[dev] == 0 {
			t.Fatalf("device %d received no work: %v", dev, out.Result.ElemsByDevice)
		}
		total += out.Result.ElemsByDevice[dev]
	}
	if total != p.N {
		t.Fatalf("elems = %d, want %d", total, p.N)
	}
	// Warp rounding: the K20m share is a multiple of 32.
	if out.Result.ElemsByDevice[1]%32 != 0 {
		t.Fatalf("K20m share %d not warp-aligned", out.Result.ElemsByDevice[1])
	}
}

func TestSPSingleMultiAccelCorrectness(t *testing.T) {
	plat := triPlatform()
	app, _ := apps.ByName("BlackScholes")
	p, err := app.Build(apps.Variant{N: 20000, Spaces: 3, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (SPSingle{}).Run(p, plat, Options{Compute: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSPSingleMultiAccelBeatsTwoDevice(t *testing.T) {
	// Adding a second accelerator must not make a compute-bound
	// partitioned run slower.
	app, _ := apps.ByName("Nbody")
	p2, _ := app.Build(apps.Variant{Spaces: 2})
	two, err := SPSingle{}.Run(p2, device.PaperPlatform(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p3, _ := app.Build(apps.Variant{Spaces: 3})
	three, err := SPSingle{}.Run(p3, triPlatform(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if three.Result.Makespan > two.Result.Makespan {
		t.Fatalf("3-device run (%v) slower than 2-device (%v)",
			three.Result.Makespan, two.Result.Makespan)
	}
}

func TestDynamicStrategiesOnThreeDevices(t *testing.T) {
	plat := triPlatform()
	app, _ := apps.ByName("BlackScholes")
	for _, s := range []Strategy{DPPerf{}, DPDep{}} {
		p, err := app.Build(apps.Variant{N: 50000, Spaces: 3, Compute: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(p, plat, Options{Compute: true}); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestStaticPlanProbesHostOncePerKernel: on a two-accelerator platform
// one SP-Single and one SP-Unified decision run each kernel's host
// probe once, not once per accelerator. The host probe is the only
// step that asks a kernel for the m pieces of Glinda's probe sample
// [0, s), s = 2% of the iteration space but at least 256 elements, so
// a kernel whose Accesses counts those calls sees each piece once.
func TestStaticPlanProbesHostOncePerKernel(t *testing.T) {
	plat, err := device.ByName("tri-asym-p2p", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		app string
		s   Strategy
	}{
		{"BlackScholes", SPSingle{}},
		{"STREAM-Seq", SPUnified{}},
	} {
		app, err := apps.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		p, err := app.Build(apps.Variant{N: 1 << 16, Spaces: 1 + len(plat.Accels)})
		if err != nil {
			t.Fatal(err)
		}
		n := p.Unique[0].Size
		sample := mem.Interval{Hi: min(max(n/50, 256), n)}
		pieces := sample.AppendSplit(nil, plat.CPUThreads())
		calls := make(map[mem.Interval]int)
		for _, k := range p.Unique {
			accesses := k.Accesses
			k.Accesses = func(lo, hi int64) []task.Access {
				calls[mem.Interval{Lo: lo, Hi: hi}]++
				return accesses(lo, hi)
			}
		}
		if _, err := c.s.Plan(p, plat, Options{}); err != nil {
			t.Fatal(err)
		}
		for _, iv := range pieces {
			if got, want := calls[iv], len(p.Unique); got != want {
				t.Errorf("%s %s: host-probe piece %v asked for %d times, want once per kernel (%d)",
					c.s.Name(), c.app, iv, got, want)
			}
		}
	}
}
