// Package classify implements the paper's application classification:
// data-parallel applications are described by their *kernel structure*
// — the number of kernels and the kernel execution flow — and sorted
// into five classes (Section III-B):
//
//	SK-One  (I)   a single kernel
//	SK-Loop (II)  a single kernel iterated in a loop
//	MK-Seq  (III) multiple kernels in a sequence
//	MK-Loop (IV)  a multi-kernel sequence iterated in a loop
//	MK-DAG  (V)   kernels whose execution forms a general DAG
//
// The structure is a small IR (Call / Seq / Loop / DAG) that an
// application builds from its source; the classifier walks it. Inner
// loops around individual kernels unfold and do not change the main
// structure (the paper's unrolling argument).
package classify

import (
	"fmt"
	"strings"
)

// Node is one construct of the kernel-structure IR.
type Node interface {
	// walk visits every kernel call in execution order (loops visited
	// once — structure, not trip count, is what matters).
	walk(fn func(kernel string))
	String() string
}

// Call is a single kernel invocation.
type Call struct {
	Kernel string
}

func (c Call) walk(fn func(string)) { fn(c.Kernel) }

// String renders the call.
func (c Call) String() string { return c.Kernel }

// Seq is a sequence of constructs executed one after another.
type Seq []Node

func (s Seq) walk(fn func(string)) {
	for _, n := range s {
		n.walk(fn)
	}
}

// String renders the sequence.
func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, n := range s {
		parts[i] = n.String()
	}
	return "(" + strings.Join(parts, "; ") + ")"
}

// Loop iterates its body. Trips is the static trip count when known;
// any value > 1 (or 0 = unknown, assumed iterative) marks repetition.
type Loop struct {
	Body  Node
	Trips int
}

func (l Loop) walk(fn func(string)) { l.Body.walk(fn) }

// String renders the loop.
func (l Loop) String() string {
	if l.Trips > 0 {
		return fmt.Sprintf("loop[%d]%s", l.Trips, l.Body)
	}
	return "loop" + l.Body.String()
}

// Repeats reports whether the loop actually iterates.
func (l Loop) Repeats() bool { return l.Trips == 0 || l.Trips > 1 }

// DAGCall is one node of an explicit task DAG.
type DAGCall struct {
	Kernel string
	// After lists indices of DAG calls this one depends on.
	After []int
}

// DAG is a set of kernel calls with explicit dependency edges.
type DAG struct {
	Calls []DAGCall
}

func (d DAG) walk(fn func(string)) {
	for _, c := range d.Calls {
		fn(c.Kernel)
	}
}

// String renders the DAG.
func (d DAG) String() string {
	parts := make([]string, len(d.Calls))
	for i, c := range d.Calls {
		parts[i] = fmt.Sprintf("%s<-%v", c.Kernel, c.After)
	}
	return "dag{" + strings.Join(parts, " ") + "}"
}

// IsChain reports whether the DAG degenerates to a linear chain
// 0 <- 1 <- 2 ... (in which case it is really a sequence and should be
// classified as one).
func (d DAG) IsChain() bool {
	for i, c := range d.Calls {
		switch {
		case i == 0:
			if len(c.After) != 0 {
				return false
			}
		case len(c.After) != 1 || c.After[0] != i-1:
			return false
		}
	}
	return true
}

// Structure is an application's kernel structure plus the
// synchronization property that picks between SP-Unified and SP-Varied
// for the multi-kernel classes.
type Structure struct {
	Flow Node
	// InterKernelSync is true when the application originally uses, or
	// the partitioning forces, global synchronization between
	// consecutive kernels (Section III-C, SP-Varied conditions).
	// DetectSync can derive the "forced" part from access patterns.
	InterKernelSync bool
}

// Kernels returns the distinct kernel names in first-appearance order.
func (s Structure) Kernels() []string {
	var order []string
	seen := make(map[string]bool)
	if s.Flow != nil {
		s.Flow.walk(func(k string) {
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
		})
	}
	return order
}

// CallCount returns the number of kernel call sites (each loop body
// counted once).
func (s Structure) CallCount() int {
	n := 0
	if s.Flow != nil {
		s.Flow.walk(func(string) { n++ })
	}
	return n
}
