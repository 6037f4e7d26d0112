// Command perfbench is the repository's benchmark: four workloads, each
// loading one layer of the matchmaker, timed end to end with every
// simulated outcome checked against a golden record, plus a traced
// mode that times each layer's public calls. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload dynamic-sched --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, since one set-up alone does not repeat.
const setups = 5

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: dynamic-sched, matchmake-static, compute-verify or service-closed")
	seed := flag.Int64("seed", 1, "permutes the op order and picks the service's unique keys")
	seconds := flag.Int("seconds", 10, "run length; fixes the op count")
	traced := flag.Int("trace", 0, "1 runs every workload step by step and prints the per-layer metrics")
	spansOut := flag.String("spans-out", "", "with -trace 1, write the recorded spans to this file")
	golden := flag.String("write-golden", "", "record every op's simulated outcome from this tree into the file and exit")
	costs := flag.String("costs", "", "print each distinct op's host cost for a library workload and exit")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *spansOut, *golden, *costs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, spansOut, goldenOut, costs string) error {
	if goldenOut != "" {
		return writeGolden(goldenOut)
	}
	if costs != "" {
		return printCosts(costs)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", seconds)
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	var rep *report
	if traced {
		rep, err = runTraced(g, seed, spansOut)
	} else {
		rep, err = runEndToEnd(w, g, seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runEndToEnd sets the workload up, then times its ops in `setups`
// segments of whole chunks, setting the workload up again (and
// discarding the copy) before each later segment. The set-ups are thus
// spread over the run: the host's speed drifts within seconds, and
// back-to-back set-ups all see the same moment of it.
func runEndToEnd(w *workload, g *golden, seed int64, seconds int) (*report, error) {
	var times []float64
	setUp := func() (bench, error) {
		runtime.GC()
		start := time.Now()
		b, err := w.setUp(g, seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		return b, nil
	}
	b, err := setUp()
	if err != nil {
		return nil, err
	}
	defer b.close()
	m := newMeasurement(b)
	chunks := b.len() / b.chunkLen()
	for s := 0; s < setups; s++ {
		if s > 0 {
			again, err := setUp()
			if err != nil {
				return nil, err
			}
			again.close()
		}
		m.run(b, w.clients, s*chunks/setups*b.chunkLen(), (s+1)*chunks/setups*b.chunkLen())
	}
	metrics := endToEnd(m, median(times))
	for _, e := range m.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	// Peak RSS is printed but not reported: on these small heaps VmHWM
	// follows GC pacing and varies by a third between runs.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in chunks of %d, %d clients, %.2fs timed, peak RSS %.1f MB, host %d CPUs, GOMAXPROCS %d, %s\n",
		w.name, b.len(), b.chunkLen(), w.clients, m.elapsed.Seconds(), rss, nproc, runtime.GOMAXPROCS(0), runtime.Version())
	printMetrics(metrics)
	return &report{Correct: m.failed == 0, Attempted: b.len(), Failed: m.failed, Metrics: metrics}, nil
}

// layerOwners names, per workload, the per-layer metrics taken from
// its traced run: each layer is reported from the workload chosen to
// load it.
var layerOwners = map[string][]string{
	"dynamic-sched": {"plan.materialize_us", "task.deps_ms", "task.dep_edges", "strategy.execute_ms",
		"strategy.execute_alloc_mb", "rt.self_ms", "rt.instances", "rt.decisions", "rt.transfers", "rt.moved_mb"},
	"matchmake-static": {"analyzer.analyze_us", "strategy.plan_ms", "strategy.plan_alloc_mb", "glinda.profile_ms"},
	"compute-verify":   {"apps.build_ms", "apps.build_alloc_mb", "apps.kernel_ms", "apps.verify_ms"},
	"service-closed": {"service.handler_ms_p50", "service.roundtrip_overhead_ms", "service.coalesce_hit_ratio",
		"runner.result_cache_hit_ratio"},
}

// targets are the layer groups each workload was chosen for, and the
// name of the metric reporting their share of the workload's host time.
var targets = map[string]struct {
	layers []string
	metric string
}{
	"dynamic-sched":    {[]string{"deps+execute"}, "share.dynamic-sched.deps_execute_pct"},
	"matchmake-static": {[]string{"plan"}, "share.matchmake-static.plan_pct"},
	"compute-verify":   {[]string{"build", "kernel", "verify"}, "share.compute-verify.build_kernel_verify_pct"},
	"service-closed":   {[]string{"handler+roundtrip"}, "share.service-closed.handler_roundtrip_pct"},
}

// runTraced runs every workload once, step by step under the tracer.
// End-to-end numbers never come from this mode.
func runTraced(g *golden, seed int64, spansOut string) (*report, error) {
	tr := newTracer()
	rep := &report{Metrics: make(map[string]metric)}
	var untraced, tracedTime time.Duration
	for _, w := range workloads() {
		tr.workload = w.name
		lr, err := w.trace(g, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		rep.Attempted += lr.attempted
		rep.Failed += lr.failed
		for _, e := range lr.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
		}
		for _, name := range layerOwners[w.name] {
			rep.Metrics[name] = lr.metrics[name]
		}
		t := targets[w.name]
		var share float64
		for _, l := range t.layers {
			share += lr.shares[l]
		}
		rep.Metrics[t.metric] = metric{share, "%"}
		untraced += lr.untraced
		tracedTime += lr.traced
		printShares(w.name, lr.shares, t.layers)
	}
	rep.Metrics["trace.overhead_pct"] = metric{100 * float64(tracedTime-untraced) / float64(untraced), "%"}
	rep.Correct = rep.Failed == 0
	printMetrics(rep.Metrics)
	if spansOut != "" {
		if err := tr.write(spansOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printShares prints a workload's layer shares, largest first, and
// whether its target layer group is the largest.
func printShares(name string, shares map[string]float64, target []string) {
	var layers []string
	var targetShare float64
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	var parts []string
	largest := true
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, shares[l]))
	}
	isTarget := make(map[string]bool)
	for _, l := range target {
		isTarget[l] = true
		targetShare += shares[l]
	}
	for _, l := range layers {
		if !isTarget[l] && shares[l] > targetShare {
			largest = false
		}
	}
	fmt.Fprintf(os.Stderr, "%s layer shares: %s; target %s largest: %v\n",
		name, strings.Join(parts, ", "), strings.Join(target, "+"), largest)
}

func printMetrics(ms map[string]metric) {
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-46s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
