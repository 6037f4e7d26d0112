package rt

import (
	"strconv"
	"strings"

	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/sim"
	"heteropart/internal/trace"
)

// rtMetrics is the runtime's instrumentation bundle: every handle is
// resolved once at Execute setup, so the hot path touches only
// pre-bound instruments. A nil *rtMetrics (observability off) makes
// every method a no-op — instrumentation sites never branch.
//
// Series produced (see DESIGN.md §8 for semantics):
//
//	rt_tasks_total{dev}            task instances executed per device
//	rt_elems_total{dev}            iteration-space elements computed
//	rt_busy_ns_total{dev}          kernel-execution virtual time
//	rt_pulled_total{dev}           central-queue (stolen) dispatches
//	rt_transfers_total{dir}        transfers per direction
//	rt_transfer_bytes_total{dir}   payload bytes per direction
//	rt_transfer_ns_total{dir}      link occupancy per direction
//	rt_taskwaits_total             barrier flushes executed
//	rt_taskwait_drain_ns           histogram of barrier drain spans
//	rt_decisions_total             dynamic scheduling decisions
//	rt_decision_overhead_ns_total  cumulative modeled decision cost
//	rt_queue_depth_max{dev}        high-water device queue depth
//	rt_central_queue_max           high-water central ready-queue depth
//	rt_instances_total             plan instances executed
//	rt_makespan_ns                 virtual end-to-end execution time
//	sim_events_total               discrete events dispatched
//	sim_wall_ns                    real time spent in the event loop
//	sim_virtual_wall_ratio         virtual/wall time compression
type rtMetrics struct {
	tasks  []*metrics.Counter
	elems  []*metrics.Counter
	busy   []*metrics.Counter
	pulled []*metrics.Counter

	// Per-direction transfer series, indexed by event.dir. The p2p
	// slot is bound only on platforms with peer edges, so the default
	// topology's exposition is unchanged.
	xferCount [3]*metrics.Counter
	xferBytes [3]*metrics.Counter
	xferNs    [3]*metrics.Counter

	taskwaits  *metrics.Counter
	drainNs    *metrics.Histogram
	decisions  *metrics.Counter
	overheadNs *metrics.Counter
	instances  *metrics.Counter

	queueMax   []*metrics.Gauge
	centralMax *metrics.Gauge
	// devQHigh/centralHigh are plain high-water marks (the simulator is
	// single-goroutine); the gauges are published from them.
	devQHigh    []int
	centralHigh int

	makespanNs *metrics.Gauge
	simEvents  *metrics.Gauge
	simWallNs  *metrics.Gauge
	simRatio   *metrics.Gauge

	// Fault-injection series, bound only when an injector is
	// configured so clean runs expose an unchanged series set:
	//
	//	fault_perturbed_chunks_total    chunk durations scaled by a fault
	//	fault_stalled_transfers_total   transfers delayed by a stall fault
	//	fault_stall_ns_total            cumulative injected stall time
	//	fault_injected_total{kind}      injected failures fired, by kind
	faultPerturbedC *metrics.Counter
	faultStalledC   *metrics.Counter
	faultStallNs    *metrics.Counter
	faultFired      map[string]*metrics.Counter
}

// newRTMetrics binds every instrument for the given platform. Returns
// nil (fully inert) when the registry is nil. The fault_* series exist
// only on faulted runs, so a clean run's exposition is byte-identical
// to the pre-fault-layer one.
func newRTMetrics(r *metrics.Registry, plat *device.Platform, faulted bool) *rtMetrics {
	if r == nil {
		return nil
	}
	devs := plat.Devices()
	nd := len(devs)
	m := &rtMetrics{
		tasks:    make([]*metrics.Counter, nd),
		elems:    make([]*metrics.Counter, nd),
		busy:     make([]*metrics.Counter, nd),
		pulled:   make([]*metrics.Counter, nd),
		queueMax: make([]*metrics.Gauge, nd),
		devQHigh: make([]int, nd),
	}
	for _, d := range devs {
		id := strconv.Itoa(d.ID)
		m.tasks[d.ID] = r.Counter(metrics.Label("rt_tasks_total", "dev", id),
			"task instances executed per device")
		m.elems[d.ID] = r.Counter(metrics.Label("rt_elems_total", "dev", id),
			"iteration-space elements computed per device")
		m.busy[d.ID] = r.Counter(metrics.Label("rt_busy_ns_total", "dev", id),
			"kernel-execution virtual nanoseconds per device")
		m.pulled[d.ID] = r.Counter(metrics.Label("rt_pulled_total", "dev", id),
			"instances pulled from the central ready queue per device")
		m.queueMax[d.ID] = r.Gauge(metrics.Label("rt_queue_depth_max", "dev", id),
			"high-water bound-queue depth per device")
	}
	for i, name := range dirName[:dirP2P] {
		dir := strings.ToLower(name)
		m.xferCount[i] = r.Counter(metrics.Label("rt_transfers_total", "dir", dir),
			"host<->device transfers per direction")
		m.xferBytes[i] = r.Counter(metrics.Label("rt_transfer_bytes_total", "dir", dir),
			"transferred payload bytes per direction")
		m.xferNs[i] = r.Counter(metrics.Label("rt_transfer_ns_total", "dir", dir),
			"link occupancy virtual nanoseconds per direction")
	}
	m.taskwaits = r.Counter("rt_taskwaits_total", "taskwait barrier flushes executed")
	m.drainNs = r.Histogram("rt_taskwait_drain_ns", "virtual span of each taskwait drain+flush")
	m.decisions = r.Counter("rt_decisions_total", "dynamic scheduling decisions taken")
	m.overheadNs = r.Counter("rt_decision_overhead_ns_total", "cumulative modeled decision overhead")
	m.instances = r.Counter("rt_instances_total", "plan instances executed")
	m.centralMax = r.Gauge("rt_central_queue_max", "high-water central ready-queue depth")
	m.makespanNs = r.Gauge("rt_makespan_ns", "virtual end-to-end execution time")
	m.simEvents = r.Gauge("sim_events_total", "discrete events dispatched by the engine")
	m.simWallNs = r.Gauge("sim_wall_ns", "real time spent inside the event loop")
	m.simRatio = r.Gauge("sim_virtual_wall_ratio", "virtual time per unit of wall time")
	if len(plat.P2P) > 0 {
		m.xferCount[dirP2P] = r.Counter(metrics.Label("rt_transfers_total", "dir", "p2p"),
			"direct device<->device transfers over peer links")
		m.xferBytes[dirP2P] = r.Counter(metrics.Label("rt_transfer_bytes_total", "dir", "p2p"),
			"payload bytes moved over peer links")
		m.xferNs[dirP2P] = r.Counter(metrics.Label("rt_transfer_ns_total", "dir", "p2p"),
			"peer-link occupancy virtual nanoseconds")
	}
	if faulted {
		m.faultPerturbedC = r.Counter("fault_perturbed_chunks_total",
			"kernel-chunk durations scaled by an injected slowdown or jitter")
		m.faultStalledC = r.Counter("fault_stalled_transfers_total",
			"transfers delayed by an injected stall")
		m.faultStallNs = r.Counter("fault_stall_ns_total",
			"cumulative injected transfer-stall virtual nanoseconds")
		m.faultFired = make(map[string]*metrics.Counter, 3)
		for _, kind := range []string{"chunk_crash", "transfer_fail", "device_loss"} {
			m.faultFired[kind] = r.Counter(metrics.Label("fault_injected_total", "kind", kind),
				"injected failures fired, by fault kind")
		}
	}
	return m
}

func (m *rtMetrics) faultPerturbed() {
	if m == nil || m.faultPerturbedC == nil {
		return
	}
	m.faultPerturbedC.Inc()
}

func (m *rtMetrics) faultStalled(extraNs int64) {
	if m == nil || m.faultStalledC == nil {
		return
	}
	m.faultStalledC.Inc()
	m.faultStallNs.Add(extraNs)
}

func (m *rtMetrics) faultInjected(kind string) {
	if m == nil || m.faultFired == nil {
		return
	}
	if c := m.faultFired[kind]; c != nil {
		c.Inc()
	}
}

// add is the metrics consumer of emit: it counts every event, drawn
// or not, so an untimed decision or a taskwait that moved nothing still
// shows up in its series.
func (m *rtMetrics) add(ev *event) {
	if m == nil {
		return
	}
	switch ev.kind {
	case trace.TaskRun:
		m.tasks[ev.dev].Inc()
		m.elems[ev.dev].Add(ev.in.Elems())
		m.busy[ev.dev].Add(int64(ev.busy))
	case trace.Transfer:
		i := ev.dir()
		m.xferCount[i].Inc()
		m.xferBytes[i].Add(ev.tr.Bytes())
		m.xferNs[i].Add(int64(ev.end - ev.start))
	case trace.Decision:
		m.decisions.Inc()
		m.overheadNs.Add(int64(ev.busy))
	case trace.Barrier:
		m.taskwaits.Inc()
		m.drainNs.ObserveDuration(ev.end - ev.start)
	}
}

func (m *rtMetrics) pulledFromCentral(dev int) {
	if m == nil {
		return
	}
	m.pulled[dev].Inc()
}

func (m *rtMetrics) noteQueueDepth(dev, depth int) {
	if m == nil {
		return
	}
	if depth > m.devQHigh[dev] {
		m.devQHigh[dev] = depth
	}
}

func (m *rtMetrics) noteCentralDepth(depth int) {
	if m == nil {
		return
	}
	if depth > m.centralHigh {
		m.centralHigh = depth
	}
}

// finish publishes end-of-run aggregates: makespan, instance count,
// queue high-water marks, and the engine's event/clock statistics.
func (m *rtMetrics) finish(eng *sim.Engine, res *Result) {
	if m == nil {
		return
	}
	m.instances.Add(int64(res.Instances))
	m.makespanNs.SetInt(int64(res.Makespan))
	for dev, high := range m.devQHigh {
		m.queueMax[dev].SetInt(int64(high))
	}
	m.centralMax.SetInt(int64(m.centralHigh))
	m.simEvents.SetInt(int64(eng.Fired()))
	wall := eng.WallTime().Nanoseconds()
	m.simWallNs.SetInt(wall)
	if wall > 0 {
		m.simRatio.Set(float64(res.Makespan) / float64(wall))
	}
}
