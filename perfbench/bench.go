package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteropart"
)

// bench is one workload, set up and ready to time.
type bench interface {
	// len is the number of timed ops.
	len() int
	// chunkLen is the length of the runs of ops that share one
	// composition; len is a multiple of it.
	chunkLen() int
	// do runs timed op i and returns the simulated task instances it
	// answered. An error (including a golden mismatch) fails the op.
	do(i int) (int, error)
	close()
}

// workload is one benchmark workload. Every run executes a fixed
// multiset of ops, sized from the run length; the seed only permutes
// their order (and, for the service, picks its unique keys).
type workload struct {
	name string
	// clients is the closed loop's concurrency: each client sends its
	// next op only after the previous one completed.
	clients int
	setUp   func(g *golden, seed int64, seconds int) (bench, error)
	// trace runs the workload's ops step by step under a span tracer.
	trace func(g *golden, seed int64, tr *tracer) (*layerReport, error)
}

// nproc is the host's usable CPU count; no pool is wider.
var nproc = runtime.NumCPU()

func workloads() []*workload {
	return []*workload{
		libWorkload("dynamic-sched", 0.66),
		libWorkload("matchmake-static", 16),
		libWorkload("compute-verify", 7),
		serviceWorkload(),
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// libWorkload is a single-goroutine closed loop over a library op
// multiset. passesPerSec converts the run length into a fixed number of
// passes over the multiset (passesPerSec of them take about a second on
// a 2-CPU x86-64 host), so the op count never depends on timing. The
// traced run makes one second's worth of passes.
func libWorkload(name string, passesPerSec float64) *workload {
	build := libOps[name]
	passes := func(seconds int) int {
		return int(math.Max(1, math.Round(float64(seconds)*passesPerSec)))
	}
	return &workload{
		name:    name,
		clients: 1,
		setUp: func(g *golden, seed int64, seconds int) (bench, error) {
			return setUpLib(g, build, seed, passes(seconds))
		},
		trace: func(g *golden, seed int64, tr *tracer) (*layerReport, error) {
			b, err := setUpLib(g, build, seed, passes(1))
			if err != nil {
				return nil, err
			}
			return traceLib(b, tr)
		},
	}
}

type libBench struct {
	g     *golden
	plats map[string]*heteropart.Platform
	seq   []*op
	chunk int
}

// maxChunks bounds how many chunks a run's throughput is the median of.
const maxChunks = 16

// setUpLib builds the platforms and the op sequence, then runs one
// warm-up pass over every distinct op. Each pass over the multiset is
// shuffled on its own, so consecutive passes form chunks of identical
// composition.
func setUpLib(g *golden, build func() ([]*op, error), seed int64, passes int) (*libBench, error) {
	plats, err := platforms()
	if err != nil {
		return nil, err
	}
	ops, err := build()
	if err != nil {
		return nil, err
	}
	var multiset []*op
	for _, o := range ops {
		for k := 0; k < o.weight; k++ {
			multiset = append(multiset, o)
		}
	}
	perChunk := (passes + maxChunks - 1) / maxChunks
	passes = (passes + perChunk - 1) / perChunk * perChunk
	b := &libBench{g: g, plats: plats, chunk: perChunk * len(multiset)}
	rng := rand.New(rand.NewSource(seed))
	for pass := 0; pass < passes; pass++ {
		for _, i := range rng.Perm(len(multiset)) {
			b.seq = append(b.seq, multiset[i])
		}
	}
	for _, o := range ops {
		// Warm-up outcomes are not checked: the same ops run timed.
		_, _ = o.run(plats[o.plat])
	}
	return b, nil
}

func (b *libBench) len() int      { return len(b.seq) }
func (b *libBench) chunkLen() int { return b.chunk }
func (b *libBench) close()        {}

func (b *libBench) do(i int) (int, error) {
	o := b.seq[i]
	oc, err := o.run(b.plats[o.plat])
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o.key, err)
	}
	return oc.Instances, b.g.check(o.key, oc)
}

// measurement is the raw record of one run's timed ops.
type measurement struct {
	origin     time.Time
	start, end []time.Duration // per op, from origin
	instances  []int           // per op
	elapsed    time.Duration   // time spent timing ops
	chunk      int
	failed     int
	errs       []error // the first few failures
	allocBytes uint64
}

func newMeasurement(b bench) *measurement {
	n := b.len()
	return &measurement{
		origin: time.Now(),
		start:  make([]time.Duration, n), end: make([]time.Duration, n),
		instances: make([]int, n), chunk: b.chunkLen(),
	}
}

// run times ops [lo, hi) of b in a closed loop of the given width.
// Each client takes the next op index once its previous op completed.
func (m *measurement) run(b bench, clients, lo, hi int) {
	var next atomic.Int64
	next.Store(int64(lo))
	var mu sync.Mutex
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				m.start[i] = time.Since(m.origin)
				inst, err := b.do(i)
				m.end[i] = time.Since(m.origin)
				m.instances[i] = inst
				if err != nil {
					mu.Lock()
					m.failed++
					if len(m.errs) < 5 {
						m.errs = append(m.errs, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	m.elapsed += time.Since(start)
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - before.TotalAlloc
}

// chunkRates returns, per chunk of identical composition, ops and
// simulated instances per second of the chunk's wall time.
func (m *measurement) chunkRates() (ops, instances []float64) {
	for lo := 0; lo+m.chunk <= len(m.start); lo += m.chunk {
		first, last := m.start[lo], m.end[lo]
		inst := 0
		for i := lo; i < lo+m.chunk; i++ {
			first = min(first, m.start[i])
			last = max(last, m.end[i])
			inst += m.instances[i]
		}
		secs := (last - first).Seconds()
		ops = append(ops, float64(m.chunk)/secs)
		instances = append(instances, float64(inst)/secs)
	}
	return ops, instances
}

// latencyQuantiles returns the median over windows of each window's
// p50 and p99 per-op latency, in ms. A window is a run of whole chunks
// of at least 1000 ops, so its p99 has ten samples beyond it; the last
// window takes the remainder. A stall burst then moves one window, not
// the run's p99.
func (m *measurement) latencyQuantiles() (p50, p99 float64) {
	n := len(m.start)
	per := (1000 + m.chunk - 1) / m.chunk * m.chunk
	windows := max(1, n/per)
	var p50s, p99s []float64
	for w := 0; w < windows; w++ {
		lo, hi := w*per, (w+1)*per
		if w == windows-1 {
			hi = n
		}
		lat := make([]time.Duration, 0, hi-lo)
		for i := lo; i < hi; i++ {
			lat = append(lat, m.end[i]-m.start[i])
		}
		ms := durationsMs(lat)
		p50s = append(p50s, quantile(ms, 0.50))
		p99s = append(p99s, quantile(ms, 0.99))
	}
	return median(p50s), median(p99s)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics of a timed region. Rates and
// latencies are medians over chunks and windows, so a burst of host
// contention in one of them does not move them.
func endToEnd(m *measurement, setupS float64) map[string]metric {
	ops, instances := m.chunkRates()
	p50, p99 := m.latencyQuantiles()
	return map[string]metric{
		"setup_s":             {setupS, "s"},
		"throughput_ops_s":    {median(ops), "ops/s"},
		"latency_ms_p50":      {p50, "ms"},
		"latency_ms_p99":      {p99, "ms"},
		"sim_instances_per_s": {median(instances), "1/s"},
		"alloc_mb_per_op":     {float64(m.allocBytes) / 1e6 / float64(len(m.start)), "MB"},
	}
}

// durationsMs returns the durations in milliseconds, sorted.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
