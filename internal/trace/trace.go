// Package trace records what happened during a simulated execution:
// task-instance placements, data transfers and barriers, with virtual
// timestamps. Traces power the paper's partitioning-ratio figures
// (which device computed how many elements) and debugging Gantt views.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"heteropart/internal/sim"
)

// Kind discriminates trace records.
type Kind int

const (
	// TaskRun is a task-instance execution on a device.
	TaskRun Kind = iota
	// Transfer is a data movement: host<->device, or device-to-device
	// over a peer link (Record.P2P).
	Transfer
	// Barrier is a taskwait (the span covers the drain + flush).
	Barrier
	// Decision is one scheduling decision (dynamic strategies); its
	// Span is the modeled decision overhead.
	Decision
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case TaskRun:
		return "task"
	case Transfer:
		return "xfer"
	case Barrier:
		return "barrier"
	case Decision:
		return "decision"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one traced event span.
type Record struct {
	Kind   Kind
	Start  sim.Time
	End    sim.Time
	Device int    // executing device ID; -1 for host-side spans
	Label  string // instance or buffer name
	Kernel string // kernel name for TaskRun records
	Elems  int64  // chunk length for TaskRun records
	Bytes  int64  // payload for Transfer records
	ToDev  bool   // transfer lands on a device (host-to-device or P2P)
	P2P    bool   // direct device-to-device transfer over a peer link
}

// Span returns the record's duration.
func (r Record) Span() sim.Duration { return r.End - r.Start }

// Trace accumulates records. The zero value is ready to use; a nil
// *Trace discards everything, so instrumentation sites never branch.
type Trace struct {
	Records []Record
}

// Add appends a record. Safe on nil.
func (t *Trace) Add(r Record) {
	if t == nil {
		return
	}
	t.Records = append(t.Records, r)
}

// TasksOn returns the TaskRun records for a device, in start order.
func (t *Trace) TasksOn(dev int) []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for _, r := range t.Records {
		if r.Kind == TaskRun && r.Device == dev {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Gantt renders a plain-text Gantt summary: one line per record, sorted
// by start time. Intended for debugging and the hetsim CLI's -trace
// flag.
func (t *Trace) Gantt() string {
	if t == nil || len(t.Records) == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	for _, r := range t.sortedRecords() {
		switch r.Kind {
		case TaskRun:
			fmt.Fprintf(&b, "%12v %12v dev%-2d %-8s %s (%d elems)\n",
				r.Start, r.End, r.Device, r.Kind, r.Label, r.Elems)
		case Transfer:
			dir := "D->H"
			switch {
			case r.P2P:
				dir = "P2P"
			case r.ToDev:
				dir = "H->D"
			}
			fmt.Fprintf(&b, "%12v %12v dev%-2d %-8s %s %s (%d B)\n",
				r.Start, r.End, r.Device, r.Kind, dir, r.Label, r.Bytes)
		default:
			fmt.Fprintf(&b, "%12v %12v %-6s %-8s %s\n", r.Start, r.End, "-", r.Kind, r.Label)
		}
	}
	return b.String()
}
