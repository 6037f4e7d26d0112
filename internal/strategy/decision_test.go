package strategy

import (
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/glinda"
	"heteropart/internal/sim"
)

// lopsidedPlatform builds a platform where one side is hopeless, to
// drive Glinda's hardware-configuration decision to its Only-* arms
// (the paper's "making the decision in practice" step).
func lopsidedPlatform(gpuHopeless bool) *device.Platform {
	cpu := device.Model{
		Name: "cpu", Kind: device.CPU, Cores: 4, HWThreads: 4,
		PeakSPGFLOPS: 100, PeakDPGFLOPS: 100, MemBWGBps: 100,
	}
	gpu := device.Model{
		Name: "gpu", Kind: device.GPU, Cores: 1,
		PeakSPGFLOPS: 10000, PeakDPGFLOPS: 10000, MemBWGBps: 10000,
		WarpSize: 32,
	}
	link := device.Link{HtoDGBps: 50, DtoHGBps: 50, Duplex: true}
	if gpuHopeless {
		gpu.PeakSPGFLOPS, gpu.PeakDPGFLOPS, gpu.MemBWGBps = 0.5, 0.5, 0.5
		link = device.Link{HtoDGBps: 0.001, DtoHGBps: 0.001, Duplex: true}
	} else {
		cpu.PeakSPGFLOPS, cpu.PeakDPGFLOPS = 0.5, 0.5
	}
	p, _ := device.NewPlatform(cpu, 4, device.Attachment{Model: gpu, Link: link})
	return p
}

func TestSPSingleOnlyCPUDecision(t *testing.T) {
	plat := lopsidedPlatform(true) // hopeless GPU
	app, _ := apps.ByName("BlackScholes")
	p, err := app.Build(apps.Variant{N: 100000, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SPSingle{}.Run(p, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	dec := out.Decisions[""]
	if dec.Config != glinda.OnlyCPU {
		t.Fatalf("decision = %v (beta %.3f), want Only-CPU", dec.Config, dec.Beta)
	}
	if out.GPURatio() != 0 {
		t.Fatalf("GPU ratio = %v despite Only-CPU decision", out.GPURatio())
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSPSingleOnlyGPUDecision(t *testing.T) {
	plat := lopsidedPlatform(false) // hopeless CPU
	app, _ := apps.ByName("BlackScholes")
	p, err := app.Build(apps.Variant{N: 100000, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SPSingle{}.Run(p, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	dec := out.Decisions[""]
	if dec.Config != glinda.OnlyGPU {
		t.Fatalf("decision = %v (beta %.3f), want Only-GPU", dec.Config, dec.Beta)
	}
	if out.GPURatio() != 1 {
		t.Fatalf("GPU ratio = %v despite Only-GPU decision", out.GPURatio())
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestStrategiesOnTinyProblems(t *testing.T) {
	// Problem smaller than the chunk count: chunking must degrade
	// gracefully (fewer, smaller instances).
	plat := device.PaperPlatform(12)
	app, _ := apps.ByName("BlackScholes")
	p, err := app.Build(apps.Variant{N: 7, Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DPDep{}.Run(p, plat, Options{Compute: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if out.Result.Instances > 7 {
		t.Fatalf("%d instances for 7 elements", out.Result.Instances)
	}
}

func TestGlindaConfigThresholdsPropagate(t *testing.T) {
	// MatrixMul's GPU-dominant split (~90%) lies between the package's
	// Only-CPU and Only-GPU cut-offs, so SP-Single stays hybrid.
	plat := device.PaperPlatform(12)
	app, _ := apps.ByName("MatrixMul")
	p, _ := app.Build(apps.Variant{})
	out, err := SPSingle{}.Run(p, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := out.Decisions[""]; d.Config != glinda.Hybrid || d.Beta < 0.8 || d.Beta > 0.95 {
		t.Fatalf("decision = %v at beta %.3f, want hybrid near 0.9", d.Config, d.Beta)
	}
}

func TestOutcomeDeterminismAcrossStrategies(t *testing.T) {
	plat := device.PaperPlatform(12)
	for _, name := range []string{"SP-Single", "DP-Perf", "DP-Dep"} {
		s, _ := ByName(name)
		run := func() sim.Duration {
			app, _ := apps.ByName("HotSpot")
			p, err := app.Build(apps.Variant{})
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Run(p, plat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return out.Result.Makespan
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%s nondeterministic: %v vs %v", name, a, b)
		}
	}
}

func TestRefinedDAGDeterministic(t *testing.T) {
	// Regression: near-simultaneous processor-sharing completions once
	// resolved through map iteration order, making mixed pinned +
	// dynamic DAG runs flap between executions.
	plat := device.PaperPlatform(12)
	app, _ := apps.ByName("Cholesky")
	run := func() sim.Duration {
		p, err := app.Build(apps.Variant{N: 8192})
		if err != nil {
			t.Fatal(err)
		}
		out, err := (DPRefinedDAG{Pins: map[string]int{"potrf": 0, "trsm": 0}}).Run(p, plat, Options{NoSeed: true})
		if err != nil {
			t.Fatal(err)
		}
		return out.Result.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic refined DAG: %v vs %v", a, b)
	}
}
