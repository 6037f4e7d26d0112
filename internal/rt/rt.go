// Package rt is the heart of the substrate: an OmpSs-like task runtime
// that executes a task.Plan on a simulated heterogeneous platform in
// virtual time.
//
// It reproduces the mechanisms the paper's analysis hinges on:
//
//   - a thread-pool execution model: m worker slots on the host CPU, one
//     per accelerator, each running one task instance at a time;
//   - data-dependency-driven asynchronous execution (BuildDeps edges
//     gate instance start);
//   - multiple memory spaces with automatic consistency: reads insert
//     host<->device transfers over the modeled PCIe links, writes
//     invalidate remote copies, taskwait drains all instances and
//     flushes device memory back to the host;
//   - pluggable scheduling with per-decision overhead for dynamic
//     policies and zero overhead for pinned (static) plans.
package rt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"heteropart/internal/apierr"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/mem"
	"heteropart/internal/metrics"
	"heteropart/internal/sched"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
	"heteropart/internal/trace"
)

// Config parameterizes one execution.
type Config struct {
	Platform  *device.Platform
	Scheduler sched.Scheduler
	// Ctx, when non-nil, is checked cooperatively at phase boundaries
	// (program-order ops and taskwait resumption): a canceled context
	// halts the simulation and Execute returns an error wrapping
	// apierr.ErrCanceled. Nil means run to completion. Checks happen
	// only between phases — a single in-flight kernel batch is never
	// interrupted — so cancellation latency is bounded by the longest
	// barrier-to-barrier window, not by event granularity.
	Ctx context.Context
	// Trace, when non-nil, receives execution records.
	Trace *trace.Trace
	// Metrics, when non-nil, receives runtime counters and scheduler
	// telemetry (see rtMetrics for the series list). Nil keeps the
	// task-execution hot path free of instrumentation cost.
	Metrics *metrics.Registry
	// Spans, when non-nil, receives hierarchical telemetry spans:
	// phase, chunk-execute, transfer, decision and barrier spans, all
	// parented under SpanParent. Nil keeps the hot path span-free.
	Spans *telemetry.Tracer
	// SpanParent is the span the execution's spans attach to (normally
	// the strategy's execute span; 0 makes them roots).
	SpanParent telemetry.SpanID
	// SpanPhases optionally declares the plan's kernel phases so chunk
	// spans nest under per-phase spans (see SpanPhase).
	SpanPhases []SpanPhase
	// Compute executes each kernel's real Go implementation at
	// instance completion (tests); false runs timing-only (benches).
	Compute bool
	// Faults, when non-nil, is consulted at every chunk-start and
	// transfer-start boundary: it scales durations (slowdown, jitter,
	// stalls) and fires injected failures, which halt the engine with
	// typed errors wrapping apierr.ErrFaultInjected (device losses
	// also wrap apierr.ErrDeviceLost). Nil injects nothing; the hooks
	// are nil-safe so the hot path never branches on configuration.
	Faults *fault.Injector
}

// Result summarizes one execution.
type Result struct {
	// Makespan is the virtual end-to-end execution time.
	Makespan sim.Duration
	// ElemsByDevice sums computed iteration-space elements per device.
	ElemsByDevice map[int]int64
	// ElemsByKernel breaks the same down per kernel name.
	ElemsByKernel map[string]map[int]int64
	// InstancesByDevice counts task instances per device.
	InstancesByDevice map[int]int
	// DeviceBusy is kernel-execution time per device (transfers and
	// decision overheads excluded).
	DeviceBusy map[int]sim.Duration
	// HtoDBytes/DtoHBytes total the host↔device traffic; P2PBytes
	// totals direct device↔device traffic over peer links (zero on
	// platforms without P2P edges). TransferCount counts all of them.
	HtoDBytes, DtoHBytes int64
	P2PBytes             int64
	TransferCount        int
	// Decisions counts dynamic scheduling decisions taken.
	Decisions int
	// Instances is the total instance count of the plan.
	Instances int
}

// GPURatio returns the fraction of elements computed by non-host
// devices (the paper's partitioning ratio).
func (r *Result) GPURatio() float64 {
	var host, accel int64
	for dev, n := range r.ElemsByDevice {
		if dev == 0 {
			host += n
		} else {
			accel += n
		}
	}
	if host+accel == 0 {
		return 0
	}
	return float64(accel) / float64(host+accel)
}

// KernelGPURatio returns the accelerator share for one kernel.
func (r *Result) KernelGPURatio(kernel string) float64 {
	m := r.ElemsByKernel[kernel]
	var host, accel int64
	for dev, n := range m {
		if dev == 0 {
			host += n
		} else {
			accel += n
		}
	}
	if host+accel == 0 {
		return 0
	}
	return float64(accel) / float64(host+accel)
}

// clockSyncer is implemented by schedulers that keep busy horizons
// (DP-Perf) and want clamping as virtual time advances.
type clockSyncer interface{ SyncClock(sim.Time) }

// linkRes models one link of the platform graph as sim resources: an
// accelerator's host attachment, or one direction pair of a P2P edge.
// Accelerators sharing a bus share the underlying resources, so their
// transfers serialize against each other while still pricing with
// their own link figures.
type linkRes struct {
	link device.Link
	htod *sim.Resource
	dtoh *sim.Resource
}

// res selects the channel for a direction; non-duplex links share one.
func (l *linkRes) res(toDev bool) *sim.Resource {
	if toDev {
		return l.htod
	}
	return l.dtoh
}

// Device IDs run 0..N and instance IDs are dense from Plan.Submit, so
// the engine's per-device and per-instance state lives in slices
// indexed by ID.
type engine struct {
	cfg  Config
	eng  *sim.Engine
	dir  *mem.Directory
	plan *task.Plan
	// clock is the scheduler's SyncClock hook, nil when it has none.
	clock clockSyncer

	// devs is the platform's device list, host first, built once per
	// Execute and served read-only through View.Devices.
	devs []*device.Device
	// links holds each accelerator's attachment (index 0, the host,
	// is nil).
	links []*linkRes
	// p2p maps ordered accel pairs (edge direction as declared) to
	// their link resources; lookup tries both orientations.
	p2p map[[2]int]*linkRes
	// sources memoizes sourceOrder per destination space.
	sources [][]mem.Space
	// devQ are per-device FIFO queues of bound instances.
	devQ [][]*task.Instance
	// central is the ready queue for pull policies.
	central []*task.Instance
	// idle counts free executor slots per device.
	idle []int
	// slots is the configured executor width per device.
	slots []int

	pendingDeps []int
	// dispatchAt records when each running instance left its queue,
	// for wall-time reporting to the scheduler.
	dispatchAt []sim.Time
	// ps is the host's processor-sharing executor.
	ps *psExec
	// inflight records transfers on the wire per destination; spare
	// holds landed records for reuse.
	inflight map[xferKey][]*inflightXfer
	spare    []*inflightXfer
	// reads is startTransfers' scratch list of input transfers.
	reads []mem.Transfer
	// eagerBusy/eagerCount track final-region proactive writebacks.
	eagerBusy  []bool
	eagerCount int
	// inBatch suppresses per-completion dispatch while a processor-
	// sharing batch drains; the batch dispatches once at the end.
	inBatch     bool
	remaining   int
	opIdx       int
	barrierWait bool

	// mx and sp are the metrics and span bundles; nil (the default)
	// makes every instrumentation call a no-op.
	mx *rtMetrics
	sp *rtSpans

	res *Result
	err error
}

// View implementation for schedulers.
func (e *engine) Now() sim.Time              { return e.eng.Now() }
func (e *engine) Devices() []*device.Device  { return e.devs }
func (e *engine) QueuedOn(dev int) int       { return len(e.devQ[dev]) }
func (e *engine) LinkOf(dev int) device.Link { return e.cfg.Platform.LinkOf(dev) }

// syncClock clamps a busy-horizon scheduler to the current time.
func (e *engine) syncClock() {
	if e.clock != nil {
		e.clock.SyncClock(e.eng.Now())
	}
}

// Execute runs the plan to completion and returns the result. The
// directory must hold every buffer the plan's accesses reference; it is
// left in its final state (host whole if the plan ends with a barrier).
func Execute(cfg Config, plan *task.Plan, dir *mem.Directory) (*Result, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("rt: nil platform")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("rt: nil scheduler")
	}
	if want := 1 + len(cfg.Platform.Accels); dir.Spaces() != want {
		return nil, fmt.Errorf("rt: directory has %d spaces, platform needs %d", dir.Spaces(), want)
	}
	if err := dir.Err(); err != nil {
		return nil, fmt.Errorf("rt: faulted directory: %w", err)
	}
	if err := plan.Err(); err != nil {
		return nil, fmt.Errorf("rt: faulted plan: %w", err)
	}
	if err := apierr.FromContext(cfg.Ctx); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}

	task.BuildDeps(plan)

	devs := cfg.Platform.Devices()
	e := &engine{
		cfg:         cfg,
		eng:         sim.NewEngine(),
		dir:         dir,
		plan:        plan,
		devs:        devs,
		links:       make([]*linkRes, len(devs)),
		sources:     make([][]mem.Space, len(devs)),
		devQ:        make([][]*task.Instance, len(devs)),
		idle:        make([]int, len(devs)),
		slots:       make([]int, len(devs)),
		pendingDeps: make([]int, plan.IDBound()),
		dispatchAt:  make([]sim.Time, plan.IDBound()),
		inflight:    make(map[xferKey][]*inflightXfer),
		eagerBusy:   make([]bool, len(devs)),
		res: &Result{
			ElemsByDevice:     make(map[int]int64),
			ElemsByKernel:     make(map[string]map[int]int64),
			InstancesByDevice: make(map[int]int),
			DeviceBusy:        make(map[int]sim.Duration),
		},
	}
	e.clock, _ = cfg.Scheduler.(clockSyncer)
	e.mx = newRTMetrics(cfg.Metrics, cfg.Platform, cfg.Faults != nil)
	if cfg.Metrics != nil {
		if ms, ok := cfg.Scheduler.(sched.MetricsSetter); ok {
			ms.SetMetrics(cfg.Metrics)
		}
	}
	e.sp = newRTSpans(cfg)
	if cfg.Spans != nil {
		if ss, ok := cfg.Scheduler.(sched.SpanSetter); ok {
			ss.SetSpans(cfg.Spans, cfg.SpanParent)
		}
	}

	// Executor slots: m on the host, 1 per accelerator. Host
	// instances share the socket via processor sharing.
	e.slots[0] = cfg.Platform.CPUThreads()
	e.idle[0] = e.slots[0]
	host := cfg.Platform.Host
	e.ps = newPSExec(e.eng,
		func(in *task.Instance, started sim.Time, demand sim.Duration) {
			e.inBatch = true
			e.complete(in, host, started, demand)
			e.inBatch = false
		},
		func() { e.dispatchAll() })
	busHtoD := make(map[string]*sim.Resource)
	busDtoH := make(map[string]*sim.Resource)
	for _, a := range cfg.Platform.Accels {
		e.slots[a.ID] = 1
		e.idle[a.ID] = 1
		l := cfg.Platform.LinkOf(a.ID)
		lr := &linkRes{link: l}
		if bus := cfg.Platform.BusOf(a.ID); bus != "" {
			// Shared bus: every attachment on it contends for one
			// resource set, so concurrent transfers serialize.
			if busHtoD[bus] == nil {
				busHtoD[bus] = sim.NewResource(e.eng, fmt.Sprintf("bus.%s.htod", bus))
			}
			lr.htod = busHtoD[bus]
			if l.Duplex {
				if busDtoH[bus] == nil {
					busDtoH[bus] = sim.NewResource(e.eng, fmt.Sprintf("bus.%s.dtoh", bus))
				}
				lr.dtoh = busDtoH[bus]
			} else {
				lr.dtoh = lr.htod
			}
		} else {
			lr.htod = sim.NewResource(e.eng, fmt.Sprintf("link%d.htod", a.ID))
			if l.Duplex {
				lr.dtoh = sim.NewResource(e.eng, fmt.Sprintf("link%d.dtoh", a.ID))
			} else {
				lr.dtoh = lr.htod
			}
		}
		e.links[a.ID] = lr
	}
	if n := len(cfg.Platform.P2P); n > 0 {
		e.p2p = make(map[[2]int]*linkRes, n)
		for i, edge := range cfg.Platform.P2P {
			lr := &linkRes{link: edge.Link}
			lr.htod = sim.NewResource(e.eng, fmt.Sprintf("p2p%d.fwd", i))
			if edge.Link.Duplex {
				lr.dtoh = sim.NewResource(e.eng, fmt.Sprintf("p2p%d.rev", i))
			} else {
				lr.dtoh = lr.htod
			}
			e.p2p[[2]int{edge.A, edge.B}] = lr
		}
		// Route selection: reads destined to an accelerator prefer
		// sources reachable in one hop over those needing a host
		// round-trip (see DESIGN.md §13). Installed only on platforms
		// with peer edges, so the default topology keeps the exact
		// host-first legacy order.
		dir.SetSourcePreference(e.sourceOrder)
	}

	// Validate pins, kernel implementations, and count work.
	for _, in := range plan.Instances() {
		e.res.Instances++
		if in.Pin != task.Unpinned {
			if in.Pin < 0 || in.Pin > len(cfg.Platform.Accels) {
				return nil, fmt.Errorf("rt: instance %v pinned to unknown device %d", in, in.Pin)
			}
			if !in.Kernel.RunsOn(cfg.Platform.Device(in.Pin).Kind) {
				return nil, fmt.Errorf("rt: instance %v pinned to %v but kernel %q has no implementation for it",
					in, cfg.Platform.Device(in.Pin), in.Kernel.Name)
			}
		} else {
			supported := false
			for _, d := range devs {
				if in.Kernel.RunsOn(d.Kind) {
					supported = true
					break
				}
			}
			if !supported {
				return nil, fmt.Errorf("rt: kernel %q has no implementation for any platform device", in.Kernel.Name)
			}
		}
		e.pendingDeps[in.ID] = len(in.Deps)
	}

	e.eng.At(0, func() { e.processOps() })
	e.eng.Run()

	if e.err != nil {
		return nil, e.err
	}
	if err := e.eng.Err(); err != nil {
		return nil, err
	}
	if e.remaining > 0 || e.opIdx < len(plan.Ops) {
		if len(e.central) > 0 {
			stuck := make([]string, 0, len(e.central))
			for _, in := range e.central {
				stuck = append(stuck, in.String())
				if len(stuck) == 4 {
					break
				}
			}
			return nil, fmt.Errorf("rt: deadlock — %d instances unfinished, op %d/%d; scheduler %s left %d unplaceable in the central queue (first: %v)",
				e.remaining, e.opIdx, len(plan.Ops), cfg.Scheduler.Name(), len(e.central), stuck)
		}
		return nil, fmt.Errorf("rt: deadlock — %d instances unfinished, op %d/%d",
			e.remaining, e.opIdx, len(plan.Ops))
	}
	e.res.Makespan = e.eng.Now()
	e.mx.finish(e.eng, e.res)
	e.sp.finish()
	return e.res, nil
}

// canceled checks the execution's context at a phase boundary; when it
// is done, the engine halts with an error wrapping apierr.ErrCanceled.
func (e *engine) canceled() bool {
	if e.cfg.Ctx == nil {
		return false
	}
	if err := apierr.FromContext(e.cfg.Ctx); err != nil {
		e.fail(fmt.Errorf("rt: execution abandoned at phase boundary (op %d/%d): %w",
			e.opIdx, len(e.plan.Ops), err))
		return true
	}
	return false
}

// processOps advances through the plan until a barrier blocks or the
// plan ends. Dispatch happens once afterwards, so a burst of
// submissions is offered to all devices breadth-first instead of being
// swallowed by whichever device is polled first.
func (e *engine) processOps() {
	defer e.dispatchAll()
	if e.canceled() {
		return
	}
	for e.opIdx < len(e.plan.Ops) {
		op := e.plan.Ops[e.opIdx]
		switch op.Kind {
		case task.OpSubmit:
			e.opIdx++
			e.remaining++
			in := op.Inst
			if e.pendingDeps[in.ID] == 0 {
				e.route(in)
			}
		case task.OpBarrier:
			if e.remaining > 0 || e.eagerCount > 0 {
				e.barrierWait = true
				return
			}
			e.opIdx++
			e.flushThen(func() { e.processOps() })
			return
		}
	}
}

// tryBarrier resumes a blocked taskwait once every instance has
// completed and in-flight eager writebacks have drained.
func (e *engine) tryBarrier() {
	if !e.barrierWait || e.remaining > 0 || e.eagerCount > 0 {
		return
	}
	if e.canceled() {
		return
	}
	e.barrierWait = false
	e.opIdx++
	e.flushThen(func() { e.processOps() })
}

// inFinalRegion reports whether the main program has issued its last
// submission (only barriers remain). The device software cache uses a
// write-back policy: dirty data stays on the device while more kernels
// may reuse it, and intermediate taskwaits flush synchronously. Only in
// the final region does the runtime stream results back eagerly — the
// paper's SP-Unified pattern, "one device-to-host data transfer after
// the last kernel finishes", which overlaps the host's remaining work.
func (e *engine) inFinalRegion() bool {
	for i := e.opIdx; i < len(e.plan.Ops); i++ {
		if e.plan.Ops[i].Kind != task.OpBarrier {
			return false
		}
	}
	return true
}

// maybeEagerFlush starts proactive writebacks from a fully drained
// accelerator during the final program region.
func (e *engine) maybeEagerFlush(dev int) {
	if dev == 0 || e.eagerBusy[dev] || !e.inFinalRegion() {
		return
	}
	if len(e.devQ[dev]) > 0 || len(e.central) > 0 || e.idle[dev] != e.slots[dev] {
		return
	}
	all, err := e.dir.FlushAllTransfers()
	if err != nil {
		e.fail(err)
		return
	}
	var txs []mem.Transfer
	for _, tr := range all {
		if int(tr.From) == dev {
			txs = append(txs, tr)
		}
	}
	if len(txs) == 0 {
		return
	}
	e.eagerBusy[dev] = true
	e.eagerCount++
	e.ensure(txs, func() {
		e.eagerCount--
		e.eagerBusy[dev] = false
		e.maybeEagerFlush(dev)
		e.tryBarrier()
	})
}

// flushThen moves all device-resident data back to the host and drops
// the device copies (taskwait semantics: the runtime releases device
// allocations, so post-barrier reuse re-transfers), then continues.
func (e *engine) flushThen(cont func()) {
	transfers, err := e.dir.FlushAllTransfers()
	if err != nil {
		e.fail(err)
		return
	}
	if len(transfers) == 0 {
		if err := e.dir.DropDeviceCopies(); err != nil {
			e.fail(err)
			return
		}
		e.mx.taskwaitDone(0)
		cont()
		return
	}
	start := e.eng.Now()
	e.ensure(transfers, func() {
		if err := e.dir.DropDeviceCopies(); err != nil {
			e.fail(err)
			return
		}
		e.cfg.Trace.Add(trace.Record{
			Kind: trace.Barrier, Start: start, End: e.eng.Now(),
			Device: -1, Label: "taskwait-flush",
		})
		e.mx.taskwaitDone(e.eng.Now() - start)
		e.sp.barrier("taskwait-flush", start, e.eng.Now())
		cont()
	})
}

// sourceOrder ranks candidate source spaces for reads destined to
// space `to` against the platform's link graph: one-hop sources first
// (the host over the accel's own attachment, peers with a direct P2P
// edge) ordered by descending bandwidth toward the destination with
// ties broken by ascending ID, then the remaining spaces (which would
// stage through the host) in ascending ID order. Host-destined reads
// keep the host-first default. The ordering is a pure function of the
// immutable platform, so runs stay deterministic.
//
// Each destination's order is computed once per Execute and shared:
// the directory only reads it.
func (e *engine) sourceOrder(to mem.Space) []mem.Space {
	if order := e.sources[to]; order != nil {
		return order
	}
	order := e.rankSources(to)
	e.sources[to] = order
	return order
}

// rankSources computes sourceOrder's ranking for one destination.
func (e *engine) rankSources(to mem.Space) []mem.Space {
	n := len(e.devs)
	order := make([]mem.Space, 0, n)
	if to == mem.HostSpace {
		for i := 0; i < n; i++ {
			order = append(order, mem.Space(i))
		}
		return order
	}
	dst := int(to)
	type cand struct {
		space mem.Space
		bw    float64
	}
	var oneHop []cand
	oneHop = append(oneHop, cand{mem.HostSpace, e.cfg.Platform.LinkOf(dst).HtoDGBps})
	twoHop := make([]mem.Space, 0, n)
	for _, a := range e.cfg.Platform.Accels {
		if a.ID == dst {
			continue
		}
		if l, fwd, ok := e.cfg.Platform.P2PLinkOf(a.ID, dst); ok {
			bw := l.HtoDGBps
			if !fwd {
				bw = l.DtoHGBps
			}
			oneHop = append(oneHop, cand{mem.Space(a.ID), bw})
		} else {
			twoHop = append(twoHop, mem.Space(a.ID))
		}
	}
	sort.SliceStable(oneHop, func(i, j int) bool {
		if oneHop[i].bw != oneHop[j].bw {
			return oneHop[i].bw > oneHop[j].bw
		}
		return oneHop[i].space < oneHop[j].space
	})
	for _, c := range oneHop {
		order = append(order, c.space)
	}
	order = append(order, twoHop...)
	order = append(order, to) // destination itself: already-valid data needs no move
	return order
}

// p2pRes finds the resource set for a direct transfer from one accel
// to another, trying both edge orientations. fwd reports whether the
// transfer runs in the edge's declared direction (HtoD figures) or
// the reverse (DtoH figures).
func (e *engine) p2pRes(from, to int) (lr *linkRes, fwd bool, ok bool) {
	if lr, ok := e.p2p[[2]int{from, to}]; ok {
		return lr, true, true
	}
	if lr, ok := e.p2p[[2]int{to, from}]; ok {
		return lr, false, true
	}
	return nil, false, false
}

// xferKey identifies the destination of an in-flight transfer.
type xferKey struct {
	buf int
	to  mem.Space
}

// inflightXfer is one transfer on the wire; later requests for
// overlapping data subscribe instead of re-issuing it. Records are
// recycled through engine.spare once the transfer lands, so land is
// bound once per record rather than once per transfer.
type inflightXfer struct {
	e   *engine
	tr  mem.Transfer
	key xferKey
	// dev is the device the transfer is reported against: the
	// accelerator of a host transfer, the destination of a P2P one.
	dev   int
	toDev bool
	p2p   bool
	start sim.Time
	done  func()
	subs  []func()
	// landFn is the bound land method.
	landFn func()
}

// ensure makes the data named by the transfer list present at its
// destinations, deduplicating against transfers already in flight:
// requested intervals covered by an in-flight transfer subscribe to its
// completion, the rest are issued. done fires once everything is
// present.
func (e *engine) ensure(transfers []mem.Transfer, done func()) {
	left := 1 // sentinel so done cannot fire before all issues
	fire := func() {
		left--
		if left == 0 {
			done()
		}
	}
	for _, tr := range transfers {
		if tr.Interval.Empty() {
			continue
		}
		key := xferKey{tr.Buf.ID, tr.To}
		flights := e.inflight[key]
		if len(flights) == 0 {
			left++
			e.runTransfer(tr, fire)
			continue
		}
		remaining := mem.NewSet(tr.Interval)
		for _, fl := range flights {
			if remaining.IntersectInterval(fl.tr.Interval).Empty() {
				continue
			}
			left++
			fl.subs = append(fl.subs, fire)
			remaining.Remove(fl.tr.Interval)
		}
		for _, iv := range remaining.Intervals() {
			left++
			e.runTransfer(mem.Transfer{Buf: tr.Buf, Interval: iv, From: tr.From, To: tr.To}, fire)
		}
	}
	fire()
}

// runTransfer performs one directory transfer over the modeled link
// graph: host↔device moves ride the device's attachment (contending
// with bus mates when the attachment names a shared bus),
// device↔device moves take a direct P2P edge when the platform has
// one and otherwise stage through the host in two legs. It registers
// the in-flight record and commits the directory state at completion.
func (e *engine) runTransfer(tr mem.Transfer, done func()) {
	from, to := int(tr.From), int(tr.To)
	if from != 0 && to != 0 {
		if lr, fwd, ok := e.p2pRes(from, to); ok {
			e.runP2P(tr, lr, fwd, done)
			return
		}
		// No peer edge: stage through the host.
		leg1 := mem.Transfer{Buf: tr.Buf, Interval: tr.Interval, From: tr.From, To: mem.HostSpace}
		leg2 := mem.Transfer{Buf: tr.Buf, Interval: tr.Interval, From: mem.HostSpace, To: tr.To}
		e.runTransfer(leg1, func() { e.runTransfer(leg2, done) })
		return
	}
	if from == to {
		done()
		return
	}
	accel := from
	toDev := false
	if from == 0 {
		accel = to
		toDev = true
	}
	extra, ferr := e.cfg.Faults.TransferStart(int64(e.eng.Now()), accel)
	if ferr != nil {
		e.faultFired(ferr, tr.Buf.Name)
		return
	}
	lr := e.links[accel]
	dur := lr.link.TransferTime(tr.Bytes(), toDev)
	if extra > 0 {
		dur += sim.Duration(extra)
		e.mx.faultStalled(extra)
	}
	e.issue(tr, accel, toDev, false, lr.res(toDev), dur, done)
}

// runP2P performs one direct device↔device transfer over a peer
// edge: one leg, no host staging, priced with the edge's figures in
// the transfer's direction. The in-flight dedup and fault hooks work
// exactly as for host transfers; the fault draw targets the source
// device (the one streaming the data out).
func (e *engine) runP2P(tr mem.Transfer, lr *linkRes, fwd bool, done func()) {
	extra, ferr := e.cfg.Faults.TransferStart(int64(e.eng.Now()), int(tr.From))
	if ferr != nil {
		e.faultFired(ferr, tr.Buf.Name)
		return
	}
	dur := lr.link.TransferTime(tr.Bytes(), fwd)
	if extra > 0 {
		dur += sim.Duration(extra)
		e.mx.faultStalled(extra)
	}
	e.issue(tr, int(tr.To), true, true, lr.res(fwd), dur, done)
}

// issue registers an in-flight record for tr and holds the link for
// dur; the record lands when the hold ends.
func (e *engine) issue(tr mem.Transfer, dev int, toDev, p2p bool, link *sim.Resource, dur sim.Duration, done func()) {
	var fl *inflightXfer
	if n := len(e.spare); n > 0 {
		fl = e.spare[n-1]
		e.spare = e.spare[:n-1]
	} else {
		fl = &inflightXfer{e: e}
		fl.landFn = fl.land
	}
	// The link serves holds FIFO: this one starts when it frees.
	fl.tr, fl.key, fl.dev, fl.toDev, fl.p2p = tr, xferKey{tr.Buf.ID, tr.To}, dev, toDev, p2p
	fl.start, fl.done = link.FreeAt(), done
	e.inflight[fl.key] = append(e.inflight[fl.key], fl)
	link.Acquire(dur, nil, fl.landFn)
}

// land commits a finished transfer, accounts for it, and releases its
// requester and subscribers before recycling the record.
func (fl *inflightXfer) land() {
	e, tr := fl.e, fl.tr
	if err := e.dir.Commit(tr); err != nil {
		e.fail(err)
		return
	}
	list := e.inflight[fl.key]
	for i, x := range list {
		if x == fl {
			e.inflight[fl.key] = slices.Delete(list, i, i+1)
			break
		}
	}
	now, bytes := e.eng.Now(), tr.Bytes()
	e.res.TransferCount++
	switch {
	case fl.p2p:
		e.res.P2PBytes += bytes
	case fl.toDev:
		e.res.HtoDBytes += bytes
	default:
		e.res.DtoHBytes += bytes
	}
	if e.cfg.Trace != nil {
		label := tr.Buf.Name
		if fl.p2p {
			label = fmt.Sprintf("%s(p2p %d->%d)", tr.Buf.Name, int(tr.From), int(tr.To))
		}
		e.cfg.Trace.Add(trace.Record{
			Kind: trace.Transfer, Start: fl.start, End: now,
			Device: fl.dev, Label: label, Bytes: bytes, ToDev: fl.toDev,
		})
	}
	if fl.p2p {
		e.mx.p2pDone(bytes, now-fl.start)
	} else {
		e.mx.transferDone(fl.toDev, bytes, now-fl.start)
	}
	e.sp.transferDone(tr.Buf.Name, fl.dev, fl.toDev, bytes, fl.start, now)
	fl.done()
	for _, s := range fl.subs {
		s()
	}
	clear(fl.subs)
	fl.subs, fl.done = fl.subs[:0], nil
	e.spare = append(e.spare, fl)
}

// route places a ready instance: pinned instances go straight to their
// device queue; otherwise the scheduler chooses (push) or the central
// queue holds it (pull). Callers dispatch afterwards.
func (e *engine) route(in *task.Instance) {
	if in.Pin != task.Unpinned {
		e.bind(in, in.Pin)
		return
	}
	e.syncClock()
	if dev, ok := e.cfg.Scheduler.OnReady(in, e); ok {
		e.bind(in, dev)
		return
	}
	e.central = append(e.central, in)
	e.mx.noteCentralDepth(len(e.central))
}

// bind queues an instance on the device its pin or the scheduler chose.
func (e *engine) bind(in *task.Instance, dev int) {
	if dev < 0 || dev >= len(e.devQ) {
		e.fail(fmt.Errorf("rt: scheduler %s placed %v on unknown device %d",
			e.cfg.Scheduler.Name(), in, dev))
		return
	}
	e.devQ[dev] = append(e.devQ[dev], in)
	e.mx.noteQueueDepth(dev, len(e.devQ[dev]))
	e.cfg.Scheduler.Placed(in, dev)
}

// reofferCentral gives a push scheduler that deferred instances (e.g.
// DP-Perf during its profiling gate) another chance after state
// changed. Pull policies simply keep deferring and consume the central
// queue through OnIdle instead.
func (e *engine) reofferCentral() {
	if len(e.central) == 0 {
		return
	}
	e.syncClock()
	kept := e.central[:0]
	for _, in := range e.central {
		if dev, ok := e.cfg.Scheduler.OnReady(in, e); ok {
			e.bind(in, dev)
			continue
		}
		kept = append(kept, in)
	}
	clear(e.central[len(kept):])
	e.central = kept
}

// dispatchAll offers work to idle executors in breadth-first rounds:
// each round gives every device with a free slot at most one instance,
// so a 1-slot accelerator competes fairly with the m-slot host for
// central-queue work (this is how the paper's DP-Dep run of MatrixMul
// ends up with exactly one instance on the GPU, Section IV-B1).
func (e *engine) dispatchAll() {
	for {
		progress := false
		for _, d := range e.devs {
			if e.idle[d.ID] > 0 && e.dispatchOne(d) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// dispatchOne starts at most one instance on d; reports whether it did.
func (e *engine) dispatchOne(d *device.Device) bool {
	var in *task.Instance
	if q := e.devQ[d.ID]; len(q) > 0 {
		in = q[0]
		e.devQ[d.ID] = q[1:]
	} else if len(e.central) > 0 {
		e.syncClock()
		pick := e.cfg.Scheduler.OnIdle(d.ID, e.central, e)
		if pick == nil {
			return false
		}
		found := false
		for i, c := range e.central {
			if c == pick {
				e.central = slices.Delete(e.central, i, i+1)
				found = true
				break
			}
		}
		if !found {
			e.fail(fmt.Errorf("rt: scheduler %s picked %v not in ready queue",
				e.cfg.Scheduler.Name(), pick))
			return false
		}
		e.cfg.Scheduler.Placed(pick, d.ID)
		e.mx.pulledFromCentral(d.ID)
		in = pick
	} else {
		return false
	}
	e.idle[d.ID]--
	e.start(in, d)
	return true
}

// start runs the instance's lifecycle on device d: decision overhead
// (dynamic only), input transfers, kernel execution, completion.
func (e *engine) start(in *task.Instance, d *device.Device) {
	e.dispatchAt[in.ID] = e.eng.Now()
	if in.Pin == task.Unpinned {
		oh := e.cfg.Scheduler.Overhead()
		e.res.Decisions++
		e.mx.decisionTaken(oh)
		if oh > 0 {
			s := e.eng.Now()
			if e.cfg.Trace != nil {
				e.cfg.Trace.Add(trace.Record{
					Kind: trace.Decision, Start: s, End: s + oh,
					Device: d.ID, Label: in.String(),
				})
			}
			e.sp.decision(in, d.ID, s, s+oh)
			e.eng.After(oh, func() { e.startTransfers(in, d) })
			return
		}
	}
	e.startTransfers(in, d)
}

func (e *engine) startTransfers(in *task.Instance, d *device.Device) {
	// ensure reads the list before returning, so one scratch slice
	// serves every instance.
	transfers := e.reads[:0]
	defer func() { e.reads = transfers[:0] }()
	space := mem.Space(d.ID)
	for _, a := range in.Accesses {
		if !a.Mode.Reads() {
			continue
		}
		txs, err := e.dir.TransfersForRead(a.Buf, space, a.Interval)
		if err != nil {
			e.fail(err)
			return
		}
		transfers = append(transfers, txs...)
	}
	if len(transfers) == 0 {
		e.exec(in, d)
		return
	}
	e.ensure(transfers, func() { e.exec(in, d) })
}

func (e *engine) exec(in *task.Instance, d *device.Device) {
	factor, ferr := e.cfg.Faults.ExecStart(int64(e.eng.Now()), d.ID, in.Kernel.Name)
	if ferr != nil {
		e.faultFired(ferr, in.String())
		return
	}
	eff := in.Kernel.EffOn(d.Kind)
	w := in.Work()
	// Kernel work is priced through the platform's cost model (the
	// roofline by default), so calibrated per-kernel overrides reach
	// the virtual clock, DP-Perf's learned rates (which observe these
	// durations), and Glinda's probes (which execute through here)
	// from one place.
	if d.ID == 0 && d.Share > 1 {
		// Host: full-speed demand under processor sharing.
		e.ps.Add(in, perturb(e.cfg.Platform.ExecCostFull(d, in.Kernel.Name, w, eff), factor))
		if factor != 1 {
			e.mx.faultPerturbed()
		}
		return
	}
	dur := perturb(e.cfg.Platform.ExecCost(d, in.Kernel.Name, w, eff), factor)
	if factor != 1 {
		e.mx.faultPerturbed()
	}
	startAt := e.eng.Now()
	e.eng.After(dur, func() { e.complete(in, d, startAt, dur) })
}

// perturb scales a duration by the injector's factor. float64 holds
// any realistic virtual duration exactly enough, and Go float
// arithmetic is deterministic, so the result is reproducible.
func perturb(dur sim.Duration, factor float64) sim.Duration {
	if factor == 1 {
		return dur
	}
	return sim.Duration(float64(dur)*factor + 0.5)
}

// faultFired halts the engine with an injected failure, recording the
// fault metric and span first so the flight recorder of a failed run
// shows what fired.
func (e *engine) faultFired(err error, label string) {
	var (
		dl *fault.DeviceLostError
		tf *fault.TransferFailError
	)
	kind := "chunk_crash"
	switch {
	case errors.As(err, &dl):
		kind = "device_loss"
	case errors.As(err, &tf):
		kind = "transfer_fail"
	}
	e.mx.faultInjected(kind)
	e.sp.fault(kind, label, e.eng.Now())
	e.fail(fmt.Errorf("rt: halted by injected fault (op %d/%d): %w",
		e.opIdx, len(e.plan.Ops), err))
}

func (e *engine) complete(in *task.Instance, d *device.Device, startAt sim.Time, dur sim.Duration) {
	if e.cfg.Compute && in.Kernel.Compute != nil {
		in.Kernel.Compute(in.Lo, in.Hi)
	}
	space := mem.Space(d.ID)
	for _, a := range in.Accesses {
		if a.Mode.Writes() {
			if err := e.dir.MarkWritten(a.Buf, space, a.Interval); err != nil {
				e.fail(err)
				return
			}
		}
	}

	if e.cfg.Trace != nil {
		e.cfg.Trace.Add(trace.Record{
			Kind: trace.TaskRun, Start: startAt, End: e.eng.Now(),
			Device: d.ID, Label: in.String(), Kernel: in.Kernel.Name, Elems: in.Elems(),
		})
	}
	e.res.ElemsByDevice[d.ID] += in.Elems()
	km := e.res.ElemsByKernel[in.Kernel.Name]
	if km == nil {
		km = make(map[int]int64)
		e.res.ElemsByKernel[in.Kernel.Name] = km
	}
	km[d.ID] += in.Elems()
	e.res.InstancesByDevice[d.ID]++
	e.res.DeviceBusy[d.ID] += dur
	e.mx.taskDone(d.ID, in.Elems(), dur)
	e.sp.chunkDone(in, d.ID, startAt, e.eng.Now())

	// Report to the scheduler: dispatch-to-completion wall time on an
	// accelerator (its transfers ride on its own pipeline), dedicated-
	// equivalent service demand on the processor-sharing host (wall
	// time there depends on how crowded the socket happened to be, so
	// it is not a rate).
	reported := e.eng.Now() - e.dispatchAt[in.ID]
	if d.ID == 0 && d.Share > 1 {
		reported = dur
	}
	e.cfg.Scheduler.Completed(in, d.ID, reported)
	e.syncClock()

	// Release successors. Dependencies never cross barriers and all
	// submissions in a barrier window happen synchronously before any
	// completion event can fire, so every successor is already
	// submitted.
	for _, s := range in.Succs {
		e.pendingDeps[s.ID]--
		if e.pendingDeps[s.ID] == 0 {
			e.route(s)
		}
	}

	e.remaining--
	e.idle[d.ID]++
	e.reofferCentral()
	if !e.inBatch {
		e.dispatchAll()
	}

	if d.ID != 0 {
		e.maybeEagerFlush(d.ID)
	}
	e.tryBarrier()
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.eng.Halt()
}
