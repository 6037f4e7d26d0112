package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"heteropart"
	"heteropart/internal/glinda"
	"heteropart/internal/plan"
	"heteropart/internal/task"
)

// span is one recorded interval of the traced run. Spans are timed
// from the benchmark's own code, around each layer's public call.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"` // id of the parent span; 0 = root
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; ids are 1-based indices. It is safe
// for concurrent use.
type tracer struct {
	origin   time.Time
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, Op: op, Parent: parent, StartNs: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes sums, per span name within one workload, each span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes(workload string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Workload == workload && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.Workload != workload {
			continue
		}
		self := s.EndNs - s.StartNs
		self -= covered(children[i+1])
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNs < ss[j].StartNs })
	var total, end int64
	for _, s := range ss {
		start := s.StartNs
		if start < end {
			start = end
		}
		if s.EndNs > start {
			total += s.EndNs - start
			end = s.EndNs
		}
	}
	return total
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerReport is one workload's traced run: the per-layer metrics it
// owns, its layer shares of host time, and its correctness tally.
type layerReport struct {
	metrics   map[string]metric
	shares    map[string]float64 // layer -> % of op host time
	attempted int
	failed    int
	errs      []error
	// untraced and traced are the same ops' host time with tracing off
	// and on; their difference is the tracing overhead.
	untraced, traced time.Duration
}

func (r *layerReport) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// allocMB is the heap allocated while f ran, in MB. It reads the
// runtime's cumulative allocation counter, which unlike ReadMemStats
// does not stop the world.
func allocMB(f func()) float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-before) / 1e6
}

// libTotals accumulates the traced library steps over a pass.
type libTotals struct {
	build, analyze, plan, execute, verify, materialize, deps, profile, kernel, rtSelf time.Duration
	buildMB, planMB, executeMB                                                        float64
	edges                                                                             int
	res                                                                               outcome
}

// traceLib runs b's ops untraced once, then step by step under the
// tracer: Build → Analyze → Plan → ExecutePlan → Verify inside the op's
// span, and a separate materialization (Materialize, BuildDeps), the
// Glinda profiles and, in compute mode, the plan's timing-mode twin in
// a probe span beside it.
func traceLib(b *libBench, tr *tracer) (*layerReport, error) {
	rep := &layerReport{metrics: make(map[string]metric), shares: make(map[string]float64)}
	runtime.GC()
	start := time.Now()
	for i := range b.seq {
		_, _ = b.do(i)
	}
	rep.untraced = time.Since(start)

	var tot libTotals
	runtime.GC()
	for i, o := range b.seq {
		rep.attempted++
		if err := traceOp(tr, i, o, b.plats[o.plat], b.g, &tot); err != nil {
			rep.fail(fmt.Errorf("%s: %w", o.key, err))
		}
	}
	n := float64(len(b.seq))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / n }
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	m := rep.metrics
	m["apps.build_ms"] = metric{ms(tot.build), "ms"}
	m["apps.build_alloc_mb"] = metric{tot.buildMB / n, "MB"}
	m["apps.kernel_ms"] = metric{ms(tot.kernel), "ms"}
	m["apps.verify_ms"] = metric{ms(tot.verify), "ms"}
	m["analyzer.analyze_us"] = metric{us(tot.analyze), "us"}
	m["strategy.plan_ms"] = metric{ms(tot.plan), "ms"}
	m["strategy.plan_alloc_mb"] = metric{tot.planMB / n, "MB"}
	m["glinda.profile_ms"] = metric{ms(tot.profile), "ms"}
	m["plan.materialize_us"] = metric{us(tot.materialize), "us"}
	m["task.deps_ms"] = metric{ms(tot.deps), "ms"}
	m["task.dep_edges"] = metric{float64(tot.edges) / n, "count"}
	m["strategy.execute_ms"] = metric{ms(tot.execute), "ms"}
	m["strategy.execute_alloc_mb"] = metric{tot.executeMB / n, "MB"}
	m["rt.self_ms"] = metric{ms(tot.rtSelf), "ms"}
	m["rt.instances"] = metric{float64(tot.res.Instances), "count"}
	m["rt.decisions"] = metric{float64(tot.res.Decisions), "count"}
	m["rt.transfers"] = metric{float64(tot.res.Transfers), "count"}
	m["rt.moved_mb"] = metric{float64(tot.res.HtoDBytes+tot.res.DtoHBytes+tot.res.P2PBytes) / 1e6, "MB"}

	self := tr.selfTimes(tr.workload)
	var opTime time.Duration
	for _, name := range []string{"op", "apps.build", "analyzer.analyze", "strategy.plan", "strategy.execute", "apps.verify"} {
		opTime += self[name]
	}
	rep.traced = opTime
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(opTime) }
	execute := self["strategy.execute"]
	kernel := tot.kernel
	if kernel > execute {
		kernel = execute
	}
	rep.shares["build"] = pct(self["apps.build"])
	rep.shares["analyze"] = pct(self["analyzer.analyze"])
	rep.shares["plan"] = pct(self["strategy.plan"])
	rep.shares["deps+execute"] = pct(execute - kernel)
	rep.shares["kernel"] = pct(kernel)
	rep.shares["verify"] = pct(self["apps.verify"])
	rep.shares["other"] = pct(self["op"])
	return rep, nil
}

// traceOp runs one op step by step under the tracer: the op's own
// calls in the op span, then a probe span that re-does parts of it in
// isolation to split the layers those calls nest.
func traceOp(tr *tracer, i int, o *op, plat *heteropart.Platform, g *golden, tot *libTotals) error {
	step := func(name string, parent int, f func()) time.Duration {
		id := tr.begin(name, parent, i)
		f()
		return tr.end(id)
	}
	var err error
	var p *heteropart.Problem
	var pl *heteropart.ExecutionPlan
	var out *heteropart.Outcome
	var execute time.Duration
	func() {
		root := tr.begin("op", 0, i)
		defer tr.end(root)
		tot.buildMB += allocMB(func() {
			tot.build += step("apps.build", root, func() { p, err = o.build(plat, o.compute) })
		})
		if err != nil {
			return
		}
		strat := o.strat
		if strat == nil {
			var r heteropart.Report
			tot.analyze += step("analyzer.analyze", root, func() { r, err = heteropart.Analyze(p) })
			if err != nil {
				return
			}
			if strat, err = heteropart.StrategyByName(r.Best); err != nil {
				return
			}
		}
		tot.planMB += allocMB(func() {
			tot.plan += step("strategy.plan", root, func() { pl, err = strat.Plan(p, plat, o.options()) })
		})
		if err != nil {
			return
		}
		tot.executeMB += allocMB(func() {
			execute = step("strategy.execute", root, func() { out, err = heteropart.ExecutePlan(pl, p, plat, o.options()) })
		})
		tot.execute += execute
		if err != nil || !o.compute {
			return
		}
		tot.verify += step("apps.verify", root, func() { err = p.Verify() })
		if err != nil {
			err = fmt.Errorf("verify: %w", err)
		}
	}()
	if err != nil {
		return err
	}
	oc := outcomeOf(out.Result)
	tot.res.Instances += oc.Instances
	tot.res.Decisions += oc.Decisions
	tot.res.Transfers += oc.Transfers
	tot.res.HtoDBytes += oc.HtoDBytes
	tot.res.DtoHBytes += oc.DtoHBytes
	tot.res.P2PBytes += oc.P2PBytes

	probe := tr.begin("probe", 0, i)
	defer tr.end(probe)
	var tp *task.Plan
	tot.materialize += step("plan.materialize", probe, func() { tp, err = pl.Materialize(p) })
	if err != nil {
		return err
	}
	deps := step("task.deps", probe, func() { task.BuildDeps(tp) })
	tot.deps += deps
	for _, in := range tp.Instances() {
		tot.edges += len(in.Deps)
	}
	if pl.Scheduler.Policy == plan.PolicyPerf && pl.Scheduler.Seeded {
		deps *= 2 // the training pass builds the dependences again
	}
	tot.rtSelf += execute - deps
	for _, k := range p.Unique {
		for a := 1; a <= len(plat.Accels); a++ {
			tot.profile += step("glinda.profile", probe, func() { _, err = glinda.Profile(plat, p.Dir, k, a, glinda.Config{}) })
			if err != nil {
				return err
			}
		}
	}
	if o.compute {
		twin, err := o.build(plat, false)
		if err != nil {
			return err
		}
		timing := step("strategy.execute_timing", probe, func() {
			_, err = heteropart.ExecutePlan(pl, twin, plat, heteropart.Options{Chunks: o.chunks})
		})
		if err != nil {
			return err
		}
		tot.kernel += execute - timing
	}
	return g.check(o.key, oc)
}
