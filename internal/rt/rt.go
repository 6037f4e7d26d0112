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
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

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

// Result summarizes one execution. Its maps are filled once, when the
// run completes, from the engine's per-instance and per-device state: a
// device or kernel that ran no chunk has no entry.
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

// devState is one device's run state, indexed by device ID.
type devState struct {
	// link is an accelerator's host attachment (nil for the host).
	link *linkRes
	// sources memoizes sourceOrder for reads destined to the device.
	sources []mem.Space
	// q is the FIFO of instances bound to the device; q[head:] wait.
	q    []*task.Instance
	head int
	// idle counts free executor slots; slots is the configured width.
	idle, slots int
	// eagerBusy marks a final-region writeback in flight.
	eagerBusy bool

	// The result tallies, summed when the run completes: chunks run,
	// their elements and service demand.
	ran   int
	elems int64
	busy  sim.Duration
}

// queued reports how many bound instances wait for a slot.
func (d *devState) queued() int { return len(d.q) - d.head }

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
	// Execute and served read-only through View.Devices; dev is the
	// run state of each.
	devs []*device.Device
	dev  []devState
	// links holds every accelerator's host attachment, then every P2P
	// edge's resource pair, in the platform's declaration order.
	links []linkRes
	// central is the ready queue for pull policies.
	central []*task.Instance

	// inst is the per-instance run state, indexed by instance ID.
	inst []instState
	// ps is the host's processor-sharing executor.
	ps psExec
	// inflight records transfers on the wire per destination, made by
	// the first transfer; spare holds landed records for reuse.
	inflight map[xferKey][]*inflightXfer
	spare    []*inflightXfer
	// joins holds finished ensure waits for reuse.
	joins []*join
	// scratch is the transfer list of the directory query in progress:
	// ensure reads it before returning, so one slice serves every
	// query.
	scratch []mem.Transfer
	// eagerCount counts final-region proactive writebacks in flight.
	eagerCount int
	// flushStart is when the taskwait flush in progress began.
	flushStart sim.Time
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

// instState is one instance's run state. The engine keeps it by
// instance ID, so executing a plan writes nothing to its instances and
// the plan can run again.
type instState struct {
	in *task.Instance
	// pending counts unfinished dependencies; dev is the device the
	// instance was dispatched to.
	pending, dev int32
	// dispatchAt is when the instance left its queue, for wall-time
	// reporting to the scheduler; dur is the chunk's service demand (an
	// accelerator chunk started dur before its completion).
	dispatchAt sim.Time
	dur        sim.Duration
}

// The engine's event handlers. Each is the engine under its own type,
// and each event passes the instance ID, device ID or flag it concerns,
// so scheduling one allocates nothing.
type (
	startEvent          engine
	startTransfersEvent engine
	execEvent           engine
	completedEvent      engine
	eagerDoneEvent      engine
	barrierDoneEvent    engine
)

func (h *startEvent) Fire(int)               { (*engine)(h).processOps() }
func (h *startTransfersEvent) Fire(id int)   { (*engine)(h).startTransfers(id) }
func (h *execEvent) Fire(id int)             { (*engine)(h).exec(id) }
func (h *completedEvent) Fire(id int)        { (*engine)(h).completed(id) }
func (h *eagerDoneEvent) Fire(dev int)       { (*engine)(h).eagerDone(dev) }
func (h *barrierDoneEvent) Fire(flushed int) { (*engine)(h).barrierDone(flushed) }

// View implementation for schedulers.
func (e *engine) Now() sim.Time              { return e.eng.Now() }
func (e *engine) Devices() []*device.Device  { return e.devs }
func (e *engine) QueuedOn(dev int) int       { return e.dev[dev].queued() }
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
//
// Execute builds the plan's dependence graph only when Plan.Stale
// reports it out of date, and keeps all run state by instance ID, so
// one plan can be executed again (with the directory reset in between)
// and gives the same result without rebuilding the graph. Each event
// passes its instance ID to a handler that is the engine itself under
// another type, so the dynamic path allocates no closure per instance.
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

	if plan.Stale() {
		task.BuildDeps(plan)
	}

	devs := cfg.Platform.Devices()
	e := &engine{
		cfg:  cfg,
		eng:  sim.NewEngine(),
		dir:  dir,
		plan: plan,
		devs: devs,
		dev:  make([]devState, len(devs)),
		inst: make([]instState, plan.IDBound()),
		res:  new(Result),
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
	e.dev[0].slots = cfg.Platform.CPUThreads()
	e.dev[0].idle = e.dev[0].slots
	e.ps.e = e
	e.links = make([]linkRes, len(cfg.Platform.Accels)+len(cfg.Platform.P2P))
	busHtoD := make(map[string]*sim.Resource)
	busDtoH := make(map[string]*sim.Resource)
	for i, a := range cfg.Platform.Accels {
		d := &e.dev[a.ID]
		d.slots, d.idle = 1, 1
		l := cfg.Platform.LinkOf(a.ID)
		lr := &e.links[i]
		lr.link = l
		if bus := cfg.Platform.BusOf(a.ID); bus != "" {
			// Shared bus: every attachment on it contends for one
			// resource set, so concurrent transfers serialize.
			if busHtoD[bus] == nil {
				busHtoD[bus] = sim.NewResource(e.eng)
			}
			lr.htod = busHtoD[bus]
			if l.Duplex {
				if busDtoH[bus] == nil {
					busDtoH[bus] = sim.NewResource(e.eng)
				}
				lr.dtoh = busDtoH[bus]
			} else {
				lr.dtoh = lr.htod
			}
		} else {
			lr.htod = sim.NewResource(e.eng)
			if l.Duplex {
				lr.dtoh = sim.NewResource(e.eng)
			} else {
				lr.dtoh = lr.htod
			}
		}
		d.link = lr
	}
	if len(cfg.Platform.P2P) > 0 {
		for i, edge := range cfg.Platform.P2P {
			lr := &e.links[len(cfg.Platform.Accels)+i]
			lr.link = edge.Link
			lr.htod = sim.NewResource(e.eng)
			if edge.Link.Duplex {
				lr.dtoh = sim.NewResource(e.eng)
			} else {
				lr.dtoh = lr.htod
			}
		}
		// Route selection: reads destined to an accelerator prefer
		// sources reachable in one hop over those needing a host
		// round-trip (see DESIGN.md §13). Installed only on platforms
		// with peer edges, so the default topology keeps the exact
		// host-first legacy order.
		dir.SetSourcePreference(e.sourceOrder)
	}

	// Validate pins, kernel implementations, and count work.
	for _, op := range plan.Ops {
		if op.Kind != task.OpSubmit {
			continue
		}
		in := op.Inst
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
		e.inst[in.ID] = instState{in: in, pending: int32(len(in.Deps))}
	}

	e.eng.At(0, (*startEvent)(e), 0)
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
	e.tally()
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
			if e.inst[in.ID].pending == 0 {
				e.route(in)
			}
		case task.OpBarrier:
			if e.remaining > 0 || e.eagerCount > 0 {
				e.barrierWait = true
				return
			}
			e.opIdx++
			e.flush()
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
	e.flush()
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
	d := &e.dev[dev]
	if dev == 0 || d.eagerBusy || !e.inFinalRegion() {
		return
	}
	if d.queued() > 0 || len(e.central) > 0 || d.idle != d.slots {
		return
	}
	all, err := e.dir.AppendFlushAllTransfers(e.scratch[:0])
	if err != nil {
		e.fail(err)
		return
	}
	// Keep this device's writebacks, filtering in place.
	txs := all[:0]
	for _, tr := range all {
		if int(tr.From) == dev {
			txs = append(txs, tr)
		}
	}
	e.scratch = txs[:0]
	if len(txs) == 0 {
		return
	}
	d.eagerBusy = true
	e.eagerCount++
	e.ensure(txs, (*eagerDoneEvent)(e), dev)
}

// eagerDone ends device dev's eager writeback.
func (e *engine) eagerDone(dev int) {
	e.eagerCount--
	e.dev[dev].eagerBusy = false
	e.maybeEagerFlush(dev)
	e.tryBarrier()
}

// flush moves all device-resident data back to the host and drops the
// device copies (taskwait semantics: the runtime releases device
// allocations, so post-barrier reuse re-transfers), then resumes the
// program.
func (e *engine) flush() {
	transfers, err := e.dir.AppendFlushAllTransfers(e.scratch[:0])
	if err != nil {
		e.fail(err)
		return
	}
	e.scratch = transfers[:0]
	e.flushStart = e.eng.Now()
	if len(transfers) == 0 {
		e.barrierDone(0)
		return
	}
	e.ensure(transfers, (*barrierDoneEvent)(e), 1)
}

// barrierDone ends the taskwait once its flush has landed; flushed is
// 1 when the flush moved data and 0 when there was nothing to move.
func (e *engine) barrierDone(flushed int) {
	if err := e.dir.DropDeviceCopies(); err != nil {
		e.fail(err)
		return
	}
	e.emit(&event{kind: trace.Barrier, start: e.flushStart, end: e.eng.Now(), dev: -1, flushed: flushed == 1})
	e.processOps()
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
	d := &e.dev[to]
	if d.sources == nil {
		d.sources = e.rankSources(to)
	}
	return d.sources
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
	plat := e.cfg.Platform
	// bw is a one-hop source's bandwidth toward dst: the host's over
	// dst's attachment, a peer's over its edge in the move's direction.
	bw := func(s mem.Space) float64 {
		if s == mem.HostSpace {
			return plat.LinkOf(dst).HtoDGBps
		}
		l, fwd, _ := plat.P2PLinkOf(int(s), dst)
		if fwd {
			return l.HtoDGBps
		}
		return l.DtoHGBps
	}
	peer := func(id int) bool {
		_, _, ok := plat.P2PLinkOf(id, dst)
		return id != dst && ok
	}
	order = append(order, mem.HostSpace)
	for _, a := range plat.Accels {
		if peer(a.ID) {
			order = append(order, mem.Space(a.ID))
		}
	}
	slices.SortStableFunc(order, func(a, b mem.Space) int {
		if ba, bb := bw(a), bw(b); ba != bb {
			return cmp.Compare(bb, ba)
		}
		return cmp.Compare(a, b)
	})
	for _, a := range plat.Accels {
		if a.ID != dst && !peer(a.ID) {
			order = append(order, mem.Space(a.ID))
		}
	}
	return append(order, to) // destination itself: already-valid data needs no move
}

// p2pRes finds the resource set for a direct transfer from one accel
// to another, trying both edge orientations; the last edge declared
// for an ordered pair wins. fwd reports whether the transfer runs in
// the edge's declared direction (HtoD figures) or the reverse (DtoH
// figures).
func (e *engine) p2pRes(from, to int) (lr *linkRes, fwd bool, ok bool) {
	edges := e.cfg.Platform.P2P
	peers := e.links[len(e.links)-len(edges):]
	for _, fwd := range [2]bool{true, false} {
		a, b := from, to
		if !fwd {
			a, b = to, from
		}
		for i := len(edges) - 1; i >= 0; i-- {
			if edges[i].A == a && edges[i].B == b {
				return &peers[i], fwd, true
			}
		}
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
	// done is the wait that issued the transfer; subs are the waits
	// that subscribed to it.
	done *join
	subs []*join
}

// join is one ensure call's wait: the count of transfers it still
// awaits, and the handler to fire with arg once they have landed.
// Joins are recycled through engine.joins once they fire.
type join struct {
	left int
	done sim.Handler
	arg  int
}

// ensure makes the data named by the transfer list present at its
// destinations, deduplicating against transfers already in flight:
// requested intervals covered by an in-flight transfer subscribe to its
// completion, the rest are issued. done.Fire(arg) runs once
// everything is present.
func (e *engine) ensure(transfers []mem.Transfer, done sim.Handler, arg int) {
	// The join's first arrival is a sentinel, so done cannot fire
	// before all issues.
	j := e.newJoin(done, arg)
	for _, tr := range transfers {
		if tr.Interval.Empty() {
			continue
		}
		key := xferKey{tr.Buf.ID, tr.To}
		flights := e.inflight[key]
		if len(flights) == 0 {
			j.left++
			e.runTransfer(tr, j)
			continue
		}
		remaining := mem.NewSet(tr.Interval)
		for _, fl := range flights {
			if remaining.IntersectInterval(fl.tr.Interval).Empty() {
				continue
			}
			j.left++
			fl.subs = append(fl.subs, j)
			remaining.Remove(fl.tr.Interval)
		}
		for _, iv := range remaining.Intervals() {
			j.left++
			e.runTransfer(mem.Transfer{Buf: tr.Buf, Interval: iv, From: tr.From, To: tr.To}, j)
		}
	}
	e.arrive(j)
}

// newJoin takes a recycled or fresh wait for done.Fire(arg) that
// awaits one arrival.
func (e *engine) newJoin(done sim.Handler, arg int) *join {
	var j *join
	if n := len(e.joins); n > 0 {
		j = e.joins[n-1]
		e.joins = e.joins[:n-1]
	} else {
		j = new(join)
	}
	*j = join{left: 1, done: done, arg: arg}
	return j
}

// arrive counts one landed transfer (or ensure's sentinel) against j;
// the last one recycles j and fires its handler.
func (e *engine) arrive(j *join) {
	j.left--
	if j.left > 0 {
		return
	}
	done, arg := j.done, j.arg
	j.done = nil
	e.joins = append(e.joins, j)
	done.Fire(arg)
}

// runTransfer performs one directory transfer over the modeled link
// graph: host↔device moves ride the device's attachment (contending
// with bus mates when the attachment names a shared bus),
// device↔device moves take a direct P2P edge when the platform has
// one and otherwise stage through the host in two legs. It registers
// the in-flight record and commits the directory state at completion,
// when it counts the transfer against done.
func (e *engine) runTransfer(tr mem.Transfer, done *join) {
	from, to := int(tr.From), int(tr.To)
	if from != 0 && to != 0 {
		if lr, fwd, ok := e.p2pRes(from, to); ok {
			e.runP2P(tr, lr, fwd, done)
			return
		}
		// No peer edge: stage through the host. The second leg starts
		// when the first lands.
		leg1 := mem.Transfer{Buf: tr.Buf, Interval: tr.Interval, From: tr.From, To: mem.HostSpace}
		leg2 := mem.Transfer{Buf: tr.Buf, Interval: tr.Interval, From: mem.HostSpace, To: tr.To}
		e.runTransfer(leg1, e.newJoin(sim.Func(func(int) { e.runTransfer(leg2, done) }), 0))
		return
	}
	if from == to {
		e.arrive(done)
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
	lr := e.dev[accel].link
	dur := lr.link.TransferTime(tr.Bytes(), toDev)
	if extra > 0 {
		dur = dur.Add(sim.Duration(extra))
		e.mx.faultStalled(extra)
	}
	e.issue(tr, accel, toDev, false, lr.res(toDev), dur, done)
}

// runP2P performs one direct device↔device transfer over a peer
// edge: one leg, no host staging, priced with the edge's figures in
// the transfer's direction. The in-flight dedup and fault hooks work
// exactly as for host transfers; the fault draw targets the source
// device (the one streaming the data out).
func (e *engine) runP2P(tr mem.Transfer, lr *linkRes, fwd bool, done *join) {
	extra, ferr := e.cfg.Faults.TransferStart(int64(e.eng.Now()), int(tr.From))
	if ferr != nil {
		e.faultFired(ferr, tr.Buf.Name)
		return
	}
	dur := lr.link.TransferTime(tr.Bytes(), fwd)
	if extra > 0 {
		dur = dur.Add(sim.Duration(extra))
		e.mx.faultStalled(extra)
	}
	e.issue(tr, int(tr.To), true, true, lr.res(fwd), dur, done)
}

// issue registers an in-flight record for tr and holds the link for
// dur; the record lands when the hold ends.
func (e *engine) issue(tr mem.Transfer, dev int, toDev, p2p bool, link *sim.Resource, dur sim.Duration, done *join) {
	if dur >= sim.MaxTime-link.FreeAt() {
		e.fail(errPastEnd("transfer"))
		return
	}
	var fl *inflightXfer
	if n := len(e.spare); n > 0 {
		fl = e.spare[n-1]
		e.spare = e.spare[:n-1]
	} else {
		fl = &inflightXfer{e: e}
	}
	// The link serves holds FIFO: this one starts when it frees.
	fl.tr, fl.key, fl.dev, fl.toDev, fl.p2p = tr, xferKey{tr.Buf.ID, tr.To}, dev, toDev, p2p
	fl.start, fl.done = link.FreeAt(), done
	if e.inflight == nil {
		e.inflight = make(map[xferKey][]*inflightXfer)
	}
	e.inflight[fl.key] = append(e.inflight[fl.key], fl)
	link.Acquire(dur, nil, fl, 0)
}

// Fire lands the transfer when its link hold ends: it commits the
// directory state, accounts for the transfer, and releases its
// requester and subscribers before recycling the record.
func (fl *inflightXfer) Fire(int) {
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
	e.emit(&event{kind: trace.Transfer, start: fl.start, end: e.eng.Now(), dev: fl.dev,
		tr: tr, toDev: fl.toDev, p2p: fl.p2p})
	e.arrive(fl.done)
	for _, j := range fl.subs {
		e.arrive(j)
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
	if dev < 0 || dev >= len(e.dev) {
		e.fail(fmt.Errorf("rt: scheduler %s placed %v on unknown device %d",
			e.cfg.Scheduler.Name(), in, dev))
		return
	}
	d := &e.dev[dev]
	if len(d.q) == cap(d.q) && d.head > 0 {
		// Full with a popped front: slide the waiting instances down
		// instead of regrowing.
		n := copy(d.q, d.q[d.head:])
		clear(d.q[n:])
		d.q, d.head = d.q[:n], 0
	}
	d.q = append(d.q, in)
	e.mx.noteQueueDepth(dev, d.queued())
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
			if e.dev[d.ID].idle > 0 && e.dispatchOne(d) {
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
	if ds := &e.dev[d.ID]; ds.queued() > 0 {
		in = ds.q[ds.head]
		ds.q[ds.head] = nil
		// Popping the last instance rewinds the queue.
		if ds.head++; ds.head == len(ds.q) {
			ds.q, ds.head = ds.q[:0], 0
		}
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
	e.dev[d.ID].idle--
	e.start(in, d)
	return true
}

// start runs the instance's lifecycle on device d: decision overhead
// (dynamic only), input transfers, kernel execution, completion. Each
// later step is an event for the instance's ID.
func (e *engine) start(in *task.Instance, d *device.Device) {
	st := &e.inst[in.ID]
	st.dispatchAt, st.dev = e.eng.Now(), int32(d.ID)
	if in.Pin == task.Unpinned {
		oh := e.cfg.Scheduler.Overhead()
		now := e.eng.Now()
		e.emit(&event{kind: trace.Decision, start: now, end: now + oh, dev: d.ID, in: in, busy: oh})
		if oh > 0 {
			e.eng.After(oh, (*startTransfersEvent)(e), in.ID)
			return
		}
	}
	e.startTransfers(in.ID)
}

// startTransfers issues instance id's input transfers and executes it
// once they have landed.
func (e *engine) startTransfers(id int) {
	st := &e.inst[id]
	space := mem.Space(st.dev)
	transfers := e.scratch[:0]
	for _, a := range st.in.Accesses {
		if !a.Mode.Reads() {
			continue
		}
		var err error
		if transfers, err = e.dir.AppendTransfersForRead(transfers, a.Buf, space, a.Interval); err != nil {
			e.fail(err)
			return
		}
	}
	e.scratch = transfers[:0]
	if len(transfers) == 0 {
		e.exec(id)
		return
	}
	e.ensure(transfers, (*execEvent)(e), id)
}

// exec runs instance id's kernel on its device: under processor
// sharing on the host, as a timed completion event on an accelerator.
func (e *engine) exec(id int) {
	st := &e.inst[id]
	in, d := st.in, e.devs[st.dev]
	factor, ferr := e.cfg.Faults.ExecStart(int64(e.eng.Now()), d.ID, in.Kernel.Name)
	if ferr != nil {
		e.faultFired(ferr, in.String())
		return
	}
	eff := in.Kernel.EffOn(d.Kind)
	w := in.Work()
	// Kernel work is priced through the platform (the roofline times
	// its calibration scales), so calibrated per-kernel factors reach
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
	if dur >= sim.MaxTime-e.eng.Now() {
		e.fail(errPastEnd("accelerator chunk"))
		return
	}
	st.dur = dur
	e.eng.After(dur, (*completedEvent)(e), id)
}

// completed finishes instance id's accelerator chunk, which started
// its execution time before now.
func (e *engine) completed(id int) {
	st := &e.inst[id]
	e.complete(st.in, e.devs[st.dev], e.eng.Now()-st.dur, st.dur)
}

// perturb scales a duration by the injector's factor, saturating at
// sim.MaxTime. float64 holds any realistic virtual duration exactly
// enough, and Go float arithmetic is deterministic, so the result is
// reproducible.
func perturb(dur sim.Duration, factor float64) sim.Duration {
	if factor == 1 {
		return dur
	}
	if p := float64(dur)*factor + 0.5; p < float64(sim.MaxTime) {
		return sim.Duration(p)
	}
	return sim.MaxTime
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

	e.emit(&event{kind: trace.TaskRun, start: startAt, end: e.eng.Now(), dev: d.ID, in: in, busy: dur})

	// Report to the scheduler: dispatch-to-completion wall time on an
	// accelerator (its transfers ride on its own pipeline), dedicated-
	// equivalent service demand on the processor-sharing host (wall
	// time there depends on how crowded the socket happened to be, so
	// it is not a rate).
	st := &e.inst[in.ID]
	st.dur = dur
	reported := e.eng.Now() - st.dispatchAt
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
		st := &e.inst[s.ID]
		st.pending--
		if st.pending == 0 {
			e.route(s)
		}
	}

	e.remaining--
	e.dev[d.ID].idle++
	e.reofferCentral()
	if !e.inBatch {
		e.dispatchAll()
	}

	if d.ID != 0 {
		e.maybeEagerFlush(d.ID)
	}
	e.tryBarrier()
}

// tally fills the result's maps once the run has completed. Every
// instance ran once, on its dispatch device, for its service demand, so
// the per-instance state holds every chunk: the per-device sums run
// densely, and a kernel's map is looked up only when the instances, in
// ID order, move on to another kernel.
func (e *engine) tally() {
	r := e.res
	r.ElemsByDevice = make(map[int]int64)
	r.ElemsByKernel = make(map[string]map[int]int64)
	r.InstancesByDevice = make(map[int]int)
	r.DeviceBusy = make(map[int]sim.Duration)
	var (
		kern *task.Kernel
		km   map[int]int64
	)
	for i := range e.inst {
		st := &e.inst[i]
		if k := st.in.Kernel; k != kern {
			if kern, km = k, r.ElemsByKernel[k.Name]; km == nil {
				km = make(map[int]int64)
				r.ElemsByKernel[k.Name] = km
			}
		}
		elems := st.in.Elems()
		km[int(st.dev)] += elems
		d := &e.dev[st.dev]
		d.ran++
		d.elems += elems
		d.busy += st.dur
	}
	for id := range e.dev {
		if d := &e.dev[id]; d.ran > 0 {
			r.ElemsByDevice[id] = d.elems
			r.InstancesByDevice[id] = d.ran
			r.DeviceBusy[id] = d.busy
		}
	}
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.eng.Halt()
}
