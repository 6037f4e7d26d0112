// Command hetsim runs one (application, strategy) combination on the
// simulated platform and reports the measured execution, optionally
// with the full task/transfer trace (a plain-text Gantt view).
//
// Usage:
//
//	hetsim -app HotSpot -strategy SP-Single
//	hetsim -app STREAM-Seq -sync none -strategy DP-Perf -trace
//	hetsim -app HotSpot -strategy DP-Perf -trace-out run.json -metrics
//
// Sweep mode shards the cross product of comma-separated -strategy
// values and -sizes over a worker pool and prints one row per run, in
// input order (byte-identical for any -parallel width):
//
//	hetsim -sweep -app BlackScholes -parallel 4
//	hetsim -sweep -app MatrixMul -strategy SP-Single,DP-Perf -sizes 512,1024,2048
//
// Plan replay separates deciding from executing: -plan-out saves the
// executed ExecutionPlan as JSON after the run (after a device loss,
// the replanned one), and -plan-in executes a saved plan (application,
// size and iterations default from the plan; -strategy is not needed).
// Every single run, decided or replayed, goes through the sweep
// runner's one execution path. A replayed run reproduces the original
// byte-for-byte — the simulator is deterministic and the plan pins the
// whole decision surface (`make replay` checks it):
//
//	hetsim -app BlackScholes -strategy SP-Single -plan-out plan.json
//	hetsim -plan-in plan.json
//
// Chaos: -fault-in injects a deterministic fault schedule (JSON, see
// DESIGN.md §12) into the run — the same schedule and seed always
// reproduce the same outcome, and a flight bundle's "faults" section
// is exactly this artifact. Injected device losses recover by
// replanning on the surviving devices and are reported as
// degradations. -fault-out re-writes the validated schedule:
//
//	hetsim -app MatrixMul -strategy SP-Single -fault-in faults.json
//	hetsim -app MatrixMul -strategy SP-Single -fault-in faults.json -record-out runs/
//
// Observability: -record-out saves the run as a flight-recorder
// bundle (spec, resolved plan, platform fingerprint, metrics, span
// tree, utilization), -record-diff compares two bundles, and -serve
// exposes the live telemetry endpoint (/metrics, /healthz, /spans,
// /runs, /debug/pprof) after the run completes:
//
//	hetsim -app HotSpot -strategy DP-Perf -record-out runs/
//	hetsim -record-diff runs/a.json runs/b.json
//	hetsim -app HotSpot -strategy DP-Perf -serve :8080
//
// Calibration closes the profile-guided loop (DESIGN.md §14):
// -calibrate-out fits a CalibrationReport from the run's recorded
// chunk spans (predicted vs simulated chunk times, median-of-ratios
// per kernel and device), -calibrate-in applies a saved report to the
// platform before running, and -calibrate-rounds k runs the full
// iterate-replan-measure loop against the resolved platform as ground
// truth, printing one row per round until the makespan converges:
//
//	hetsim -app BlackScholes -strategy SP-Single -calibrate-out cal.json
//	hetsim -app BlackScholes -strategy SP-Single -calibrate-in cal.json
//	hetsim -app BlackScholes -calibrate-rounds 3 -calibrate-out cal.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"heteropart"
)

func main() {
	var (
		appName   = flag.String("app", "", "application name")
		stratName = flag.String("strategy", "", "strategy name (SP-Single, SP-Unified, SP-Varied, DP-Perf, DP-Dep, DP-Converted, Only-CPU, Only-GPU)")
		m         = flag.Int("m", 12, "CPU worker threads")
		n         = flag.Int64("n", 0, "problem size (0 = paper default)")
		iters     = flag.Int("iters", 0, "loop iterations (0 = paper default)")
		chunks    = flag.Int("chunks", 0, "task instances per kernel (0 = m)")
		showTrace = flag.Bool("trace", false, "print the execution trace (Gantt view)")
		traceOut  = flag.String("trace-out", "", "write the execution trace to this file")
		traceFmt  = flag.String("trace-format", "chrome", "trace file format: chrome (trace-event JSON for chrome://tracing / Perfetto) or csv")
		showMx    = flag.Bool("metrics", false, "print the metrics registry (Prometheus text exposition)")
		compute   = flag.Bool("compute", false, "execute real kernels and verify the result (small sizes)")
		sweep     = flag.Bool("sweep", false, "sweep mode: fan the cross product of -strategy (comma-separated, empty = all) and -sizes over a worker pool")
		parallel  = flag.Int("parallel", 1, "worker pool width for -sweep (1 = sequential)")
		sizes     = flag.String("sizes", "", "comma-separated problem sizes for -sweep (empty = the single -n)")
		planOut   = flag.String("plan-out", "", "write the executed plan (JSON) to this file after the run")
		planIn    = flag.String("plan-in", "", "execute a saved execution plan instead of deciding one (-app/-n/-iters default from the plan)")
		serveAddr = flag.String("serve", "", "after the run, serve live telemetry (/metrics, /healthz, /spans, /runs, /debug/pprof) on this address")
		recordOut = flag.String("record-out", "", "write a flight-recorder bundle of the run into this directory (implies trace, metrics and span collection)")
		recordIn  = flag.String("record-diff", "", "compare this flight-recorder bundle against the one named by the next argument, then exit")
		faultIn   = flag.String("fault-in", "", "inject the fault schedule (JSON) from this file into the run; injection is deterministic, and device losses recover by replanning on the survivors (DESIGN.md §12)")
		faultOut  = flag.String("fault-out", "", "write the run's validated fault schedule (stable JSON) to this file — the exact artifact -fault-in replays")
		platName  = flag.String("platform", "", "simulate a named catalog platform instead of the paper's (see heteropart.PlatformNames; empty = paper)")
		platIn    = flag.String("platform-in", "", "simulate the platform described by this PlatformSpec JSON file (overrides -platform)")
		calibIn   = flag.String("calibrate-in", "", "apply the CalibrationReport (JSON) from this file to the platform before running (refused if it was fitted for a different platform)")
		calibOut  = flag.String("calibrate-out", "", "fit a CalibrationReport from the run's recorded chunk spans and write it (stable JSON) to this file")
		calibR    = flag.Int("calibrate-rounds", 0, "run the calibration loop for up to this many rounds against the resolved platform as ground truth, then exit (DESIGN.md §14)")
	)
	var sync heteropart.SyncMode
	flag.TextVar(&sync, "sync", heteropart.SyncDefault, "inter-kernel sync variant: default|forced|none")
	flag.Parse()
	if *recordIn != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "hetsim: -record-diff needs exactly one more bundle path argument")
			os.Exit(2)
		}
		diffBundles(*recordIn, flag.Arg(0))
		return
	}
	if *traceFmt != "chrome" && *traceFmt != "csv" {
		fatal(fmt.Errorf("unknown -trace-format %q (want chrome or csv)", *traceFmt))
	}
	if *planIn != "" && *sweep {
		fatal(fmt.Errorf("-plan-in replays a single run and cannot combine with -sweep"))
	}

	var loaded *heteropart.ExecutionPlan
	if *planIn != "" {
		data, err := os.ReadFile(*planIn)
		fatal(err)
		loaded, err = heteropart.PlanFromJSON(data)
		fatal(err)
		if *appName == "" {
			*appName = loaded.App
		}
		if *n == 0 {
			*n = loaded.N
		}
		if *iters == 0 {
			*iters = loaded.Iters
		}
	}
	// -sweep, -plan-in and -calibrate-rounds pick strategies themselves
	// (all of them, the plan's, the analyzer's); everything else needs
	// an explicit -strategy.
	if *appName == "" || (*stratName == "" && !*sweep && loaded == nil && *calibR == 0) {
		fmt.Fprintln(os.Stderr, "hetsim: -app and -strategy are required")
		os.Exit(2)
	}

	var sched *heteropart.FaultSchedule
	if *faultIn != "" {
		data, err := os.ReadFile(*faultIn)
		fatal(err)
		sched, err = heteropart.FaultScheduleFromJSON(data)
		fatal(err)
		if loaded != nil {
			fatal(fmt.Errorf("-fault-in cannot combine with -plan-in: a faulted run may replan after a device loss, which replaying a saved plan forbids"))
		}
	}
	if *faultOut != "" && sched == nil {
		fatal(fmt.Errorf("-fault-out needs -fault-in: this run has no schedule to write"))
	}
	writeFaultOut := func() {
		if *faultOut == "" {
			return
		}
		data, err := sched.JSON()
		fatal(err)
		fatal(os.WriteFile(*faultOut, data, 0o644))
		fmt.Printf("fault schedule written to %s\n", *faultOut)
	}

	plat, err := resolvePlatform(*platIn, *platName, *m)
	fatal(err)
	if *calibIn != "" {
		data, err := os.ReadFile(*calibIn)
		fatal(err)
		report, err := heteropart.CalibrationFromJSON(data)
		fatal(err)
		plat, err = report.Apply(plat)
		fatal(err)
		fmt.Printf("calibration applied from %s (%d scales)\n", *calibIn, len(report.Scales))
	}
	if *calibR > 0 {
		if *sweep || loaded != nil || sched != nil {
			fatal(fmt.Errorf("-calibrate-rounds runs its own decide/execute loop and cannot combine with -sweep, -plan-in or -fault-in"))
		}
		runCalibrationLoop(plat, sync, *appName, *stratName, *n, *iters, *chunks, *calibR, *planOut, *calibOut)
		return
	}
	if *sweep {
		if *recordOut != "" {
			fatal(fmt.Errorf("-record-out records a single run and cannot combine with -sweep"))
		}
		if *calibOut != "" {
			fatal(fmt.Errorf("-calibrate-out fits from a single recorded run and cannot combine with -sweep"))
		}
		runSweep(plat, sync, *appName, *stratName, *sizes, *n, *iters, *chunks, *compute, *parallel, *showMx, *serveAddr, sched)
		writeFaultOut()
		return
	}
	// -record-out, -serve and -calibrate-out imply full observability:
	// trace, metrics and span collection (the calibration fit ingests
	// the recorded chunk spans).
	observe := *recordOut != "" || *serveAddr != "" || *calibOut != ""
	var tracer *heteropart.SpanTracer
	if observe {
		tracer = heteropart.NewSpanTracer()
	}
	// Every single run goes through the runner: a decided run replans
	// on the survivors when an injected fault loses a device, and a
	// -plan-in replay executes the saved plan as is.
	r := heteropart.NewRunner(heteropart.RunnerConfig{Workers: 1, Spans: tracer})
	spec := heteropart.RunSpec{
		App: *appName, Strategy: *stratName, Sync: sync, N: *n, Iters: *iters,
		Plat: plat, Chunks: *chunks, Compute: *compute,
		CollectTrace: *showTrace || *traceOut != "" || observe,
		WithMetrics:  *showMx || observe,
		Fault:        sched,
	}
	var res *heteropart.RunResult
	if loaded != nil {
		res, err = r.ExecuteContext(context.Background(), spec, loaded)
	} else {
		res, err = r.Run(spec)
	}
	fatal(err)
	out, pl, reg := res.Outcome, res.Plan, res.Metrics
	if *planOut != "" {
		data, err := pl.JSON()
		fatal(err)
		fatal(os.WriteFile(*planOut, data, 0o644))
	}

	fmt.Printf("%s on %s (%s)\n", out.Strategy, *appName, plat)
	fmt.Printf("  makespan:   %.3f ms\n", out.Result.Makespan.Milliseconds())
	fmt.Printf("  GPU share:  %.1f%%\n", 100*out.GPURatio())
	fmt.Printf("  instances:  %d (%d scheduling decisions)\n", out.Result.Instances, out.Result.Decisions)
	fmt.Printf("  transfers:  %d (%.1f MB to device, %.1f MB back)\n",
		out.Result.TransferCount, float64(out.Result.HtoDBytes)/1e6, float64(out.Result.DtoHBytes)/1e6)
	devs := make([]int, 0, len(out.Result.InstancesByDevice))
	for d := range out.Result.InstancesByDevice {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	for _, d := range devs {
		fmt.Printf("  device %d:   %d instances, %d elems, busy %.3f ms\n",
			d, out.Result.InstancesByDevice[d], out.Result.ElemsByDevice[d],
			out.Result.DeviceBusy[d].Milliseconds())
	}
	if len(out.Decisions) > 0 {
		fmt.Println("  glinda decisions:")
		keys := make([]string, 0, len(out.Decisions))
		for k := range out.Decisions {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d := out.Decisions[k]
			label := k
			if label == "" {
				label = "(unified)"
			}
			fmt.Printf("    %-10s %s beta=%.3f ng=%d nc=%d (r=%.2f g=%.2f)\n",
				label, d.Config, d.Beta, d.NG, d.NC, d.R, d.G)
		}
	}
	if len(out.Degradations) > 0 {
		fmt.Println("  degradations:")
		for _, d := range out.Degradations {
			fmt.Printf("    device %d lost at %.3f ms (attempt %d): replanned %s on %d accelerator(s)\n",
				d.LostDevice, float64(d.AtNs)/1e6, d.Attempt, d.Replanned, d.RemainingAccels)
		}
	}
	if *compute {
		if res.Verify == nil {
			fmt.Println("  verify:     (timing-only problem)")
		} else if err := res.Verify(); err != nil {
			fatal(fmt.Errorf("verification failed: %w", err))
		} else {
			fmt.Println("  verify:     OK (matches sequential reference)")
		}
	}
	if *showTrace {
		fmt.Println("utilization:")
		fmt.Print(indent(out.Trace.UtilizationReport(out.Result.Makespan)))
		h, d := out.Trace.LinkOccupancy()
		fmt.Printf("  link busy: %v to device, %v back\n", h, d)
		fmt.Println("trace:")
		fmt.Print(out.Trace.Gantt())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fatal(err)
		if *traceFmt == "csv" {
			err = out.Trace.WriteCSV(f)
		} else {
			err = out.Trace.ChromeTrace(f)
		}
		if err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		fatal(err)
		fmt.Printf("trace written to %s (%s)\n", *traceOut, *traceFmt)
	}
	if *planOut != "" {
		fmt.Printf("plan written to %s\n", *planOut)
	}
	writeFaultOut()
	if *showMx {
		fmt.Println("metrics:")
		fmt.Print(reg.Text(out.Result.Makespan))
	}

	var bundle *heteropart.FlightBundle
	if observe {
		bundle, err = heteropart.RecordRun(*appName, out, pl, plat, reg, tracer)
		fatal(err)
	}
	if *recordOut != "" {
		fatal(os.MkdirAll(*recordOut, 0o755))
		path := filepath.Join(*recordOut, fmt.Sprintf("%s_%s.json", *appName, out.Strategy))
		fatal(bundle.WriteFile(path))
		fmt.Printf("flight bundle written to %s\n", path)
	}
	if *calibOut != "" {
		report, err := heteropart.Calibrate([]*heteropart.FlightBundle{bundle}, plat)
		fatal(err)
		data, err := report.JSON()
		fatal(err)
		fatal(os.WriteFile(*calibOut, data, 0o644))
		fmt.Printf("calibration report written to %s (%d scales from %d samples)\n",
			*calibOut, len(report.Scales), report.Rounds[0].Samples)
	}
	if *serveAddr != "" {
		srv := heteropart.NewTelemetryServer(heteropart.TelemetryConfig{
			Metrics: reg, Spans: tracer,
			Now: func() heteropart.Duration { return out.Result.Makespan },
		})
		srv.AddRun(bundle)
		fmt.Printf("serving telemetry on %s (ctrl-c to stop)\n", *serveAddr)
		fatal(srv.ListenAndServe(*serveAddr))
	}
}

// runCalibrationLoop implements -calibrate-rounds: the resolved
// platform (including any -calibrate-in scales) is the ground truth,
// the loop starts believing the calibration-free base model, and each
// round decides a plan on the believed model, measures it on the
// truth, refits, and replans — until the measured makespan moves by
// less than the convergence threshold or the round budget runs out.
func runCalibrationLoop(plat *heteropart.Platform, sync heteropart.SyncMode,
	appName, stratName string, n int64, iters, chunks, rounds int,
	planOut, calibOut string) {
	report, pl, _, err := heteropart.Converge(heteropart.ConvergeConfig{
		App: appName, Strategy: stratName, Sync: sync,
		N: n, Iters: iters, Chunks: chunks, MaxRounds: rounds,
	}, plat, plat.Uncalibrated())
	fatal(err)
	fmt.Printf("calibration of %s on %s (%d of %d rounds)\n",
		appName, plat, len(report.Rounds), rounds)
	fmt.Printf("%-6s  %8s  %8s  %13s  %s\n",
		"round", "samples", "err(%)", "makespan(ms)", "plan changes")
	for _, r := range report.Rounds {
		fmt.Printf("%-6d  %8d  %8.2f  %13.3f  %d\n",
			r.Round, r.Samples, 100*r.MeanAbsRelErr, float64(r.MakespanNs)/1e6, len(r.PlanDiff))
	}
	fmt.Printf("fitted %d scale(s); converged plan: %s via %s\n",
		len(report.Scales), pl.App, pl.Strategy)
	if planOut != "" {
		data, err := pl.JSON()
		fatal(err)
		fatal(os.WriteFile(planOut, data, 0o644))
		fmt.Printf("plan written to %s\n", planOut)
	}
	if calibOut != "" {
		data, err := report.JSON()
		fatal(err)
		fatal(os.WriteFile(calibOut, data, 0o644))
		fmt.Printf("calibration report written to %s\n", calibOut)
	}
}

// diffBundles implements -record-diff: like diff(1), silent with exit
// status 0 when the recordings match, one line per difference and exit
// status 1 otherwise.
func diffBundles(pathA, pathB string) {
	a, err := heteropart.ParseBundleFile(pathA)
	fatal(err)
	b, err := heteropart.ParseBundleFile(pathB)
	fatal(err)
	diff := heteropart.DiffBundles(a, b)
	for _, line := range diff {
		fmt.Println(line)
	}
	if len(diff) > 0 {
		os.Exit(1)
	}
}

// runSweep fans the (strategy x size) cross product over the sweep
// runner and prints one row per run, in spec order.
func runSweep(plat *heteropart.Platform, sync heteropart.SyncMode,
	appName, stratCSV, sizesCSV string, n int64, iters, chunks int,
	compute bool, parallel int, showMx bool, serveAddr string,
	sched *heteropart.FaultSchedule) {
	var strats []string
	if stratCSV == "" {
		for _, s := range heteropart.Strategies() {
			strats = append(strats, s.Name())
		}
	} else {
		strats = strings.Split(stratCSV, ",")
	}
	ns := []int64{n}
	if sizesCSV != "" {
		ns = ns[:0]
		for _, f := range strings.Split(sizesCSV, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			fatal(err)
			ns = append(ns, v)
		}
	}
	var reg *heteropart.Metrics
	if showMx || serveAddr != "" {
		reg = heteropart.NewMetrics()
	}
	var tracer *heteropart.SpanTracer
	if serveAddr != "" {
		tracer = heteropart.NewSpanTracer()
	}
	r := heteropart.NewRunner(heteropart.RunnerConfig{Workers: parallel, Metrics: reg, Spans: tracer})
	var specs []heteropart.RunSpec
	for _, nn := range ns {
		for _, s := range strats {
			specs = append(specs, heteropart.RunSpec{
				App: appName, Strategy: s, Sync: sync, N: nn, Iters: iters,
				Chunks: chunks, Compute: compute, Plat: plat, Fault: sched,
			})
		}
	}
	results, err := r.RunAll(specs)
	fatal(err)
	// The pool width is deliberately absent from stdout: sweep output
	// must be byte-identical for any -parallel value.
	fmt.Printf("%s sweep on %s (%d runs)\n", appName, plat, len(specs))
	fmt.Printf("%-12s  %10s  %12s  %9s\n", "strategy", "n", "makespan(ms)", "GPU share")
	for i, res := range results {
		out := res.Outcome
		fmt.Printf("%-12s  %10d  %12.3f  %8.1f%%\n",
			out.Strategy, specs[i].N, out.Result.Makespan.Milliseconds(), 100*out.GPURatio())
		if compute && res.Verify != nil {
			if err := res.Verify(); err != nil {
				fatal(fmt.Errorf("%s n=%d: verification failed: %w", out.Strategy, specs[i].N, err))
			}
		}
	}
	if showMx {
		fmt.Println("metrics:")
		fmt.Print(reg.Text(0))
	}
	if serveAddr != "" {
		srv := heteropart.NewTelemetryServer(heteropart.TelemetryConfig{Metrics: reg, Spans: tracer})
		fmt.Printf("serving telemetry on %s (ctrl-c to stop)\n", serveAddr)
		fatal(srv.ListenAndServe(serveAddr))
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// resolvePlatform picks the simulated platform: a PlatformSpec JSON
// file (-platform-in), a named catalog entry (-platform), or the
// paper's Xeon+K20m pair. threads > 0 overrides the host worker count
// in all three cases (the -m flag).
func resolvePlatform(file, name string, threads int) (*heteropart.Platform, error) {
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return heteropart.PlatformFromJSON(data, threads)
	case name != "":
		return heteropart.PlatformByName(name, threads)
	default:
		return heteropart.PaperPlatform(threads), nil
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetsim:", err)
		os.Exit(1)
	}
}
