package classify

import (
	"fmt"

	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// Class is one of the paper's five application classes.
type Class int

const (
	// SKOne (Class I): a single kernel.
	SKOne Class = iota
	// SKLoop (Class II): a single kernel iterated in a loop.
	SKLoop
	// MKSeq (Class III): multiple kernels in a sequence.
	MKSeq
	// MKLoop (Class IV): a multi-kernel sequence iterated in a loop.
	MKLoop
	// MKDAG (Class V): kernel execution forms a general DAG.
	MKDAG
)

// String returns the paper's class name.
func (c Class) String() string {
	switch c {
	case SKOne:
		return "SK-One"
	case SKLoop:
		return "SK-Loop"
	case MKSeq:
		return "MK-Seq"
	case MKLoop:
		return "MK-Loop"
	case MKDAG:
		return "MK-DAG"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Roman returns the paper's roman-numeral label (Classes I-V).
func (c Class) Roman() string {
	switch c {
	case SKOne:
		return "I"
	case SKLoop:
		return "II"
	case MKSeq:
		return "III"
	case MKLoop:
		return "IV"
	case MKDAG:
		return "V"
	default:
		return "?"
	}
}

// MultiKernel reports whether the class has multiple distinct kernels.
func (c Class) MultiKernel() bool { return c >= MKSeq }

// Classify determines the class of a kernel structure.
//
// Rules (Section III-B):
//   - any non-chain DAG construct makes the application MK-DAG;
//   - one distinct kernel: repeated execution (a repeating loop or
//     multiple call sites) is SK-Loop, a single call is SK-One;
//   - several distinct kernels: a repeating top-level loop around the
//     multi-kernel body is MK-Loop, otherwise MK-Seq. Inner loops
//     around individual kernels unfold and do not lift the class.
func Classify(s Structure) (Class, error) {
	if s.Flow == nil {
		return 0, fmt.Errorf("classify: empty kernel structure")
	}
	kernels := s.Kernels()
	if len(kernels) == 0 {
		return 0, fmt.Errorf("classify: structure has no kernel calls")
	}
	if hasRealDAG(s.Flow) {
		return MKDAG, nil
	}
	if len(kernels) == 1 {
		if s.CallCount() > 1 || hasRepeatingLoop(s.Flow) {
			return SKLoop, nil
		}
		return SKOne, nil
	}
	// Multiple kernels: only a *top-level* repeating loop whose body
	// contains more than one distinct kernel makes it MK-Loop.
	if topLevelMultiKernelLoop(s.Flow) {
		return MKLoop, nil
	}
	return MKSeq, nil
}

// hasRealDAG detects a DAG construct that is not a degenerate chain.
func hasRealDAG(n Node) bool {
	switch v := n.(type) {
	case DAG:
		return !v.IsChain()
	case Seq:
		for _, c := range v {
			if hasRealDAG(c) {
				return true
			}
		}
	case Loop:
		return hasRealDAG(v.Body)
	}
	return false
}

// hasRepeatingLoop reports whether any repeating loop exists.
func hasRepeatingLoop(n Node) bool {
	switch v := n.(type) {
	case Loop:
		return v.Repeats() || hasRepeatingLoop(v.Body)
	case Seq:
		for _, c := range v {
			if hasRepeatingLoop(c) {
				return true
			}
		}
	}
	return false
}

// topLevelMultiKernelLoop reports whether the outermost construct (or a
// member of the outermost sequence) is a repeating loop spanning more
// than one distinct kernel.
func topLevelMultiKernelLoop(n Node) bool {
	check := func(l Loop) bool {
		if !l.Repeats() {
			return false
		}
		sub := Structure{Flow: l.Body}
		return len(sub.Kernels()) > 1
	}
	switch v := n.(type) {
	case Loop:
		return check(v)
	case Seq:
		for _, c := range v {
			if l, ok := c.(Loop); ok && check(l) {
				return true
			}
		}
	}
	return false
}

// DetectSync derives whether a partitioned execution of the kernel
// sequence *requires* inter-kernel synchronization: it probes an
// interior chunk [lo,hi) and checks whether any kernel reads, from a
// buffer a preceding kernel writes, data outside its own chunk — the
// "assemble the output of one kernel produced on different processors"
// condition of Section III-C. Halo exchanges (stencils) and global
// reductions (n-body forces) trip it; element-aligned pipelines
// (STREAM) do not.
func DetectSync(kernels []*task.Kernel, n int64) bool {
	if len(kernels) == 0 || n <= 0 {
		return false
	}
	lo := n / 3
	hi := lo + n/3
	if hi <= lo {
		lo, hi = 0, n
	}
	chunk := mem.Interval{Lo: lo, Hi: hi}
	written := make(map[int]bool) // buffers written by earlier kernels
	for i, k := range kernels {
		for _, a := range k.AccessesOf(lo, hi) {
			if i > 0 && a.Mode.Reads() && written[a.Buf.ID] {
				if a.Interval.Lo < chunk.Lo || a.Interval.Hi > chunk.Hi {
					return true
				}
			}
		}
		for _, a := range k.AccessesOf(lo, hi) {
			if a.Mode.Writes() {
				written[a.Buf.ID] = true
			}
		}
	}
	return false
}
