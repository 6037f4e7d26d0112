// Package task defines the unit of work the runtime schedules: kernels
// (static descriptions of parallel sections, annotated OmpSs-style with
// their data accesses and cost), task instances (chunks of a kernel's
// iteration space), and execution plans (ordered submissions with
// taskwait barriers). It also builds the data-dependency graph the
// runtime uses for asynchronous execution.
package task

import (
	"fmt"

	"heteropart/internal/device"
	"heteropart/internal/mem"
)

// Mode is a data-access mode, mirroring OmpSs in/out/inout clauses.
type Mode int

const (
	// Read corresponds to an OmpSs "in" dependence.
	Read Mode = iota
	// Write corresponds to "out".
	Write
	// ReadWrite corresponds to "inout".
	ReadWrite
)

// Reads reports whether the mode reads the region.
func (m Mode) Reads() bool { return m == Read || m == ReadWrite }

// Writes reports whether the mode writes the region.
func (m Mode) Writes() bool { return m == Write || m == ReadWrite }

// String returns the OmpSs clause name.
func (m Mode) String() string {
	switch m {
	case Read:
		return "in"
	case Write:
		return "out"
	case ReadWrite:
		return "inout"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Access names a region of a buffer touched by a task instance.
type Access struct {
	Buf      *mem.Buffer
	Interval mem.Interval
	Mode     Mode
}

// String renders the access for traces.
func (a Access) String() string {
	return fmt.Sprintf("%s(%s%v)", a.Mode, a.Buf.Name, a.Interval)
}

// Kernel is the static description of one parallel section of code. Its
// iteration space is [0, Size) elements; any contiguous chunk of it can
// become a task instance.
type Kernel struct {
	Name string
	// Size is the full iteration-space extent (the problem size n).
	Size int64
	// Precision selects which peak-FLOPS figure applies.
	Precision device.Precision

	// Flops and MemBytes give the resource demand of a chunk [lo,hi).
	// They need not be linear (MatrixMul's chunks read all of B).
	Flops    func(lo, hi int64) float64
	MemBytes func(lo, hi int64) float64

	// Eff calibrates how close this kernel gets to peak per device
	// kind; missing kinds use device.DefaultEfficiency.
	Eff map[device.Kind]device.Efficiency

	// Devices restricts which device kinds have an implementation of
	// this kernel (the OmpSs "implements" clause, Section II-B: "The
	// implements clause allows for multiple implementations of the
	// same task for different kinds of compute resources"). Nil or
	// empty means every kind is implemented.
	Devices []device.Kind

	// Accesses lists the buffer regions a chunk [lo,hi) touches, used
	// for dependence analysis and transfer insertion.
	Accesses func(lo, hi int64) []Access

	// Compute optionally executes the chunk's real math (compute
	// mode). Nil in timing-only mode.
	Compute func(lo, hi int64)
}

// Work returns the roofline demand of chunk [lo,hi).
func (k *Kernel) Work(lo, hi int64) device.Work {
	var w device.Work
	w.Precision = k.Precision
	if k.Flops != nil {
		w.Flops = k.Flops(lo, hi)
	}
	if k.MemBytes != nil {
		w.Bytes = k.MemBytes(lo, hi)
	}
	return w
}

// EffOn returns the kernel's efficiency on the given device kind.
func (k *Kernel) EffOn(kind device.Kind) device.Efficiency {
	if e, ok := k.Eff[kind]; ok && e.Valid() {
		return e
	}
	return device.DefaultEfficiency
}

// AccessesOf materializes the access list for a chunk; kernels without
// an access function yield none (pure-compute kernels).
func (k *Kernel) AccessesOf(lo, hi int64) []Access {
	if k.Accesses == nil {
		return nil
	}
	return k.Accesses(lo, hi)
}

// RunsOn reports whether the kernel has an implementation for the
// device kind.
func (k *Kernel) RunsOn(kind device.Kind) bool {
	if len(k.Devices) == 0 {
		return true
	}
	for _, d := range k.Devices {
		if d == kind {
			return true
		}
	}
	return false
}

// Unpinned marks an instance as schedulable on any device.
const Unpinned = -1

// Instance is one task instance: a chunk [Lo,Hi) of a kernel's
// iteration space, optionally pinned to a device by a static strategy.
type Instance struct {
	ID     int
	Kernel *Kernel
	Lo, Hi int64

	// Pin is a device ID, or Unpinned for dynamic scheduling.
	Pin int
	// Chain groups instances that form a data-dependency chain across
	// kernels (same partition index); DP-Dep uses it for device
	// affinity. Negative means no chain.
	Chain int

	// Accesses is the materialized access list.
	Accesses []Access

	// Deps and Succs are filled by BuildDeps.
	Deps  []*Instance
	Succs []*Instance
}

// Elems returns the chunk length.
func (in *Instance) Elems() int64 {
	if in.Hi <= in.Lo {
		return 0
	}
	return in.Hi - in.Lo
}

// Work returns the chunk's roofline demand.
func (in *Instance) Work() device.Work { return in.Kernel.Work(in.Lo, in.Hi) }

// String renders the instance for traces.
func (in *Instance) String() string {
	return fmt.Sprintf("%s#%d[%d,%d)", in.Kernel.Name, in.ID, in.Lo, in.Hi)
}

// OpKind discriminates plan operations.
type OpKind int

const (
	// OpSubmit submits a task instance.
	OpSubmit OpKind = iota
	// OpBarrier is a taskwait: wait for all submitted instances, then
	// flush device memories to the host.
	OpBarrier
)

// Op is one step of an execution plan.
type Op struct {
	Kind OpKind
	Inst *Instance
}

// Plan is the ordered program a strategy hands to the runtime:
// submissions interleaved with taskwait barriers, exactly as the
// OmpSs-annotated source would issue them.
//
// Submission faults are deferred: a bad chunk records the first error,
// visible through Err, and the runtime refuses to execute a faulted
// plan. This keeps the strategy builders' submit loops fluent.
type Plan struct {
	Name string
	Ops  []Op

	nextID int
	err    error
}

// Err reports the first submission fault, or nil.
func (p *Plan) Err() error { return p.err }

// Submit appends a task instance for kernel k over [lo,hi), pinned to
// device pin (or Unpinned), in dependency chain chain (or -1). It
// returns the instance for further inspection. A chunk outside the
// kernel's iteration space records a deferred error (see Err) and is
// not appended; Submit then returns nil.
func (p *Plan) Submit(k *Kernel, lo, hi int64, pin, chain int) *Instance {
	if lo < 0 || hi > k.Size || hi < lo {
		if p.err == nil {
			p.err = fmt.Errorf("task: chunk [%d,%d) outside kernel %q size %d", lo, hi, k.Name, k.Size)
		}
		return nil
	}
	in := &Instance{
		ID:       p.nextID,
		Kernel:   k,
		Lo:       lo,
		Hi:       hi,
		Pin:      pin,
		Chain:    chain,
		Accesses: k.AccessesOf(lo, hi),
	}
	p.nextID++
	p.Ops = append(p.Ops, Op{Kind: OpSubmit, Inst: in})
	return in
}

// Barrier appends a taskwait.
func (p *Plan) Barrier() {
	p.Ops = append(p.Ops, Op{Kind: OpBarrier})
}

// IDBound returns one more than the largest instance ID Submit has
// issued. IDs are dense from 0, so per-instance state fits a slice of
// this length.
func (p *Plan) IDBound() int { return p.nextID }

// Instances returns all submitted instances in submission order.
func (p *Plan) Instances() []*Instance {
	out := make([]*Instance, 0, len(p.Ops))
	for _, op := range p.Ops {
		if op.Kind == OpSubmit {
			out = append(out, op.Inst)
		}
	}
	return out
}

// Barriers counts the taskwait operations in the plan.
func (p *Plan) Barriers() int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			n++
		}
	}
	return n
}
