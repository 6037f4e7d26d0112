// Command matchmaker runs the paper's application analyzer on a
// bundled application: classify its kernel structure, print Table I's
// ranking for that class, select the best partitioning strategy, and
// (unless -dry) execute it on the simulated platform. Every decision,
// execution and validation goes through the sweep runner.
//
// With -explain the matchmaker also decides the winning strategy's
// execution plan and the runner-up's, and prints what the winner does
// differently (partition shares, scheduler, instance counts, Glinda
// decisions) without executing either.
//
// Usage:
//
//	matchmaker -app BlackScholes
//	matchmaker -app STREAM-Seq -sync forced -m 12 -validate
//	matchmaker -app HotSpot -explain -dry
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"heteropart"
)

func main() {
	var (
		appName  = flag.String("app", "", "application name (see -list)")
		structur = flag.String("structure", "", `classify a kernel structure without running it, e.g. "loop[10]{copy; scale} !sync"`)
		list     = flag.Bool("list", false, "list bundled applications and exit")
		m        = flag.Int("m", 12, "CPU worker threads")
		n        = flag.Int64("n", 0, "problem size (0 = paper default)")
		iters    = flag.Int("iters", 0, "loop iterations (0 = paper default)")
		dry      = flag.Bool("dry", false, "analyze only, do not execute")
		explain  = flag.Bool("explain", false, "diff the winning strategy's execution plan against the runner-up's")
		validate = flag.Bool("validate", false, "run every suitable strategy and check Table I's ranking")
		showMx   = flag.Bool("metrics", false, "print the executed run's metrics registry (Prometheus text exposition)")
		platName = flag.String("platform", "", "match against a named catalog platform instead of the paper's (empty = paper)")
	)
	var sync heteropart.SyncMode
	flag.TextVar(&sync, "sync", heteropart.SyncDefault, "inter-kernel sync variant: default|forced|none")
	flag.Parse()

	if *list {
		for _, a := range heteropart.Apps() {
			fmt.Printf("%-14s default n=%d iters=%d\n", a.Name(), a.DefaultN(), a.DefaultIters())
		}
		return
	}
	if *structur != "" {
		s, err := heteropart.ParseStructure(*structur)
		fatal(err)
		cls, err := heteropart.Classify(s)
		fatal(err)
		fmt.Printf("class: %s (Class %s)\n", cls, cls.Roman())
		ranked := heteropart.Ranking(cls, s.InterKernelSync)
		fmt.Printf("suitable strategies (best first): %v\n", ranked)
		return
	}
	if *appName == "" {
		fmt.Fprintln(os.Stderr, "matchmaker: -app or -structure is required (try -list)")
		os.Exit(2)
	}

	app, err := heteropart.AppByName(*appName)
	fatal(err)

	plat := heteropart.PaperPlatform(*m)
	if *platName != "" {
		var perr error
		plat, perr = heteropart.PlatformByName(*platName, *m)
		fatal(perr)
	}
	fmt.Printf("platform: %s\n", plat)

	ctx := context.Background()
	r := heteropart.NewRunner(heteropart.RunnerConfig{Workers: runtime.NumCPU()})
	spec := heteropart.RunSpec{App: app.Name(), Sync: sync, N: *n, Iters: *iters, Plat: plat}

	if *validate {
		val, err := r.ValidateContext(ctx, spec)
		fatal(err)
		fmt.Printf("%s\n", val.Report)
		fmt.Printf("theoretical: %v\n", val.Ranked)
		fmt.Printf("empirical:   %v\n", val.Empirical)
		for _, s := range val.Empirical {
			fmt.Printf("  %-11s %10.1f ms\n", s, val.Times[s].Milliseconds())
		}
		if val.Matches {
			fmt.Println("ranking matches Table I")
		} else {
			fmt.Println("RANKING MISMATCH")
			os.Exit(1)
		}
		return
	}

	problem, err := app.Build(heteropart.Variant{N: *n, Iters: *iters, Sync: sync, Spaces: 1 + len(plat.Accels)})
	fatal(err)
	report, err := heteropart.Analyze(problem)
	fatal(err)
	fmt.Println(report)
	spec.Strategy = report.Best

	if *explain {
		bestPlan, _, err := r.PlanContext(ctx, spec)
		fatal(err)
		fmt.Printf("winning plan: %s — %d phases, %d instances, %s scheduler\n",
			bestPlan.Strategy, len(bestPlan.Phases), bestPlan.Instances(), bestPlan.Scheduler.Policy)
		if len(report.Ranked) < 2 {
			fmt.Println("no runner-up strategy to compare")
		} else {
			ru := spec
			ru.Strategy = report.Ranked[1]
			ruPlan, _, err := r.PlanContext(ctx, ru)
			fatal(err)
			fmt.Printf("vs runner-up %s:\n", ruPlan.Strategy)
			diff := heteropart.DiffPlans(bestPlan, ruPlan)
			if len(diff) == 0 {
				fmt.Println("  (plans identical)")
			}
			for _, line := range diff {
				fmt.Println("  " + line)
			}
		}
	}
	if *dry {
		return
	}

	spec.WithMetrics = *showMx
	res, err := r.RunContext(ctx, spec)
	fatal(err)
	out := res.Outcome
	fmt.Printf("executed %s: %.1f ms, GPU share %.0f%%, %d transfers (%.0f MB out, %.0f MB back)\n",
		out.Strategy, out.Result.Makespan.Milliseconds(), 100*out.GPURatio(),
		out.Result.TransferCount,
		float64(out.Result.HtoDBytes)/1e6, float64(out.Result.DtoHBytes)/1e6)
	if res.Metrics != nil {
		fmt.Println("metrics:")
		fmt.Print(res.Metrics.Text(out.Result.Makespan))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "matchmaker:", err)
		os.Exit(1)
	}
}
