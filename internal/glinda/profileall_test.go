package glinda

import (
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/metrics"
)

// TestProfileAllMatchesProfile: one host probe serves every
// accelerator, so ProfileAll's entry i equals Profile's estimate for
// accelerator i+1 field for field, and ProfileFusedAll's equals
// ProfileFused's, on both multi-accelerator catalog platforms, with no
// faults and under profile noise. The metrics read the same: one
// profile counted per (kernel, accelerator) estimate, and the same
// final gauges.
func TestProfileAllMatchesProfile(t *testing.T) {
	noise := &fault.Schedule{Version: fault.ScheduleVersion, Seed: 7, Faults: []fault.Fault{
		{Kind: fault.KindProfileNoise, Device: fault.AnyDevice, Amplitude: 0.2},
	}}
	for _, name := range []string{"tri-asym-p2p", "dual-gpu-bus"} {
		plat, err := device.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		var clean Estimate
		for _, faults := range []*fault.Schedule{nil, noise} {
			for _, app := range []apps.App{apps.NewBlackScholes(), apps.NewStreamSeq()} {
				p, err := app.Build(apps.Variant{N: 1 << 16, Spaces: 1 + len(plat.Accels)})
				if err != nil {
					t.Fatal(err)
				}
				one, all := metrics.NewRegistry(), metrics.NewRegistry()
				for _, k := range p.Unique {
					got, err := ProfileAll(plat, p.Dir, k, Config{Metrics: all, Faults: faults})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(plat.Accels) {
						t.Fatalf("%s %s: %d estimates for %d accelerators", name, k.Name, len(got), len(plat.Accels))
					}
					if faults == nil && clean == (Estimate{}) {
						clean = got[0]
					} else if faults != nil && app.Name() == "BlackScholes" && got[0] == clean {
						t.Errorf("%s: profile noise left the estimate %+v unchanged", name, clean)
					}
					for i := range got {
						want, err := Profile(plat, p.Dir, k, i+1, Config{Metrics: one, Faults: faults})
						if err != nil {
							t.Fatal(err)
						}
						if got[i] != want {
							t.Errorf("%s %s noise=%v accelerator %d: ProfileAll %+v, Profile %+v",
								name, k.Name, faults != nil, i+1, got[i], want)
						}
					}
				}
				if a, o := all.Text(0), one.Text(0); a != o {
					t.Errorf("%s %s: metrics differ\nProfileAll:\n%s\nProfile:\n%s", name, app.Name(), a, o)
				}
				if len(p.Unique) == 1 {
					continue
				}
				fused, err := ProfileFusedAll(plat, p.Dir, p.Unique, Config{Faults: faults})
				if err != nil {
					t.Fatal(err)
				}
				for i := range fused {
					want, err := ProfileFused(plat, p.Dir, p.Unique, i+1, Config{Faults: faults})
					if err != nil {
						t.Fatal(err)
					}
					if fused[i] != want {
						t.Errorf("%s %s noise=%v accelerator %d: ProfileFusedAll %+v, ProfileFused %+v",
							name, app.Name(), faults != nil, i+1, fused[i], want)
					}
				}
			}
		}
	}
}

// BenchmarkProfileAll measures one kernel profile against every
// accelerator (one host probe, one probe per accelerator) for
// BlackScholes and each STREAM-Seq kernel at the paper's sizes, on each
// catalog platform.
func BenchmarkProfileAll(b *testing.B) {
	for _, name := range device.SpecNames() {
		plat, err := device.ByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range []apps.App{apps.NewBlackScholes(), apps.NewStreamSeq()} {
			p, err := app.Build(apps.Variant{Spaces: 1 + len(plat.Accels)})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+app.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, k := range p.Unique {
						if _, err := ProfileAll(plat, p.Dir, k, Config{}); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
