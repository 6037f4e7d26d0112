package strategy

import (
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
)

func TestDPRefinedDAGRunsAndPins(t *testing.T) {
	plat := device.PaperPlatform(4)
	app, _ := apps.ByName("Cholesky")
	p, err := app.Build(apps.Variant{N: 64, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	s := DPRefinedDAG{Pins: map[string]int{"potrf": 0}}
	if !s.Applicable(p.Class(), false) {
		t.Fatal("DP-Refined must apply to MK-DAG")
	}
	out, err := s.Run(p, plat, Options{Compute: true, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// Every potrf record must sit on device 0.
	for _, r := range out.Trace.Records {
		if r.Kernel == "potrf" && r.Device != 0 {
			t.Fatalf("potrf ran on device %d despite pin", r.Device)
		}
	}
}

func TestDPRefinedDAGErrors(t *testing.T) {
	plat := device.PaperPlatform(4)
	app, _ := apps.ByName("STREAM-Seq")
	p, _ := app.Build(apps.Variant{N: 1000})
	if _, err := (DPRefinedDAG{}).Run(p, plat, Options{}); err == nil {
		t.Fatal("chunkable app accepted")
	}
	chol, _ := apps.ByName("Cholesky")
	pc, _ := chol.Build(apps.Variant{N: 64})
	if _, err := (DPRefinedDAG{Pins: map[string]int{"potrf": 9}}).Run(pc, plat, Options{}); err == nil {
		t.Fatal("bad pin accepted")
	}
}
