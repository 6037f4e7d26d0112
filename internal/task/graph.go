package task

import (
	"slices"

	"heteropart/internal/mem"
)

// BuildDeps computes the data-dependency edges of a plan, mirroring the
// OmpSs runtime's dependence analysis: for each newly submitted
// instance, overlap its accesses against earlier instances' accesses on
// the same buffer and add RAW, WAR and WAW edges. Barriers order
// everything before them ahead of everything after them, so dependence
// tracking restarts at each barrier (the runtime enforces the barrier
// itself).
//
// Edges are deduplicated. Each Deps list is in discovery order: by
// access, then by submission, which is ascending ID. Succs lists are in
// submission order too.
func BuildDeps(p *Plan) {
	hist := newHistories(p)
	// The per-instance state is slices indexed by op position: seen[i]
	// == j+1 marks op i's instance as already a dependency of op j's
	// (or as op j's own); nsucc[i] counts its successors.
	n := len(p.Ops)
	seen := make([]int, 2*n)
	seen, nsucc := seen[:n:n], seen[n:]
	// Every Deps list is a capped window of one shared slab.
	var slab []*Instance

	for i, op := range p.Ops {
		if op.Kind == OpBarrier {
			for b, h := range hist {
				hist[b] = history{ents: h.ents[:0]}
			}
			continue
		}
		in := op.Inst
		stamp := i + 1
		seen[i] = stamp
		first := len(slab)
		for _, a := range in.Accesses {
			from := len(slab)
			for _, h := range hist[a.Buf.ID].candidates(a.Interval) {
				if seen[h.op] == stamp || !a.Interval.Overlaps(h.iv) {
					continue
				}
				// RAW: we read what they wrote. WAW: we write what
				// they wrote. WAR: we write what they read.
				conflict := (a.Mode.Reads() && h.mode.Writes()) ||
					(a.Mode.Writes() && h.mode.Writes()) ||
					(a.Mode.Writes() && h.mode.Reads())
				if conflict {
					seen[h.op] = stamp
					slab = append(slab, p.Ops[h.op].Inst)
					nsucc[h.op]++
				}
			}
			// The index yields entries by interval start; a history
			// lists them in submission order, which is ascending ID.
			slices.SortFunc(slab[from:], func(a, b *Instance) int { return a.ID - b.ID })
		}
		in.Deps = nil
		if len(slab) > first {
			in.Deps = slab[first:len(slab):len(slab)]
		}
		for _, a := range in.Accesses {
			hist[a.Buf.ID].insert(past{iv: a.Interval, op: i, mode: a.Mode})
		}
	}

	// Succs mirror Deps and share one exactly sized slab. A Deps entry
	// always precedes its dependent, so walking in submission order
	// sizes each list before it is filled, in ascending ID order.
	succs := make([]*Instance, len(slab))
	for i, op := range p.Ops {
		if op.Kind != OpSubmit {
			continue
		}
		in := op.Inst
		in.Succs = nil
		if c := nsucc[i]; c > 0 {
			in.Succs, succs = succs[:0:c], succs[c:]
		}
		for _, d := range in.Deps {
			d.Succs = append(d.Succs, in)
		}
	}
}

// past is one access in a buffer's history: its interval, mode and the
// position of its instance's op in the plan. Holding no pointer, the
// histories move and are scanned by the garbage collector for free.
type past struct {
	iv   mem.Interval
	op   int
	mode Mode
}

// history is one buffer's non-empty accesses since the last barrier,
// ordered by interval start, with the longest interval among them. An
// access can overlap only entries that start before its end and less
// than that length before its start.
type history struct {
	ents   []past
	maxLen int64
}

// shortHistory is the length up to which a plain scan of a history
// beats locating the candidates by binary search.
const shortHistory = 8

// newHistories sizes each buffer's history, indexed by buffer ID (dense
// from Register), for the most non-empty accesses any barrier window
// makes to the buffer, and carves them all from one slab.
func newHistories(p *Plan) []history {
	// counts[b] holds buffer b's accesses in the current window and the
	// most in any window; a few buffers fit on the stack.
	type count struct{ window, most int }
	var stack [8]count
	counts := stack[:0]
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			for b := range counts {
				counts[b].window = 0
			}
			continue
		}
		for _, a := range op.Inst.Accesses {
			b := a.Buf.ID
			if b >= len(counts) {
				counts = append(counts, make([]count, b+1-len(counts))...)
			}
			if !a.Interval.Empty() {
				c := &counts[b]
				c.window++
				c.most = max(c.most, c.window)
			}
		}
	}
	total := 0
	for _, c := range counts {
		total += c.most
	}
	slab := make([]past, total)
	hist := make([]history, len(counts))
	for b, c := range counts {
		hist[b].ents, slab = slab[:0:c.most], slab[c.most:]
	}
	return hist
}

// candidates returns the entries that can overlap iv, in interval-start
// order.
func (h *history) candidates(iv mem.Interval) []past {
	switch {
	case iv.Empty():
		return nil
	case len(h.ents) <= shortHistory:
		return h.ents
	}
	return h.ents[startsAfter(h.ents, iv.Lo-h.maxLen):startsAfter(h.ents, iv.Hi-1)]
}

// insert adds a non-empty access in interval-start order; empty ones
// overlap nothing and are dropped.
func (h *history) insert(e past) {
	if e.iv.Empty() {
		return
	}
	h.maxLen = max(h.maxLen, e.iv.Len())
	n := len(h.ents)
	h.ents = append(h.ents, e)
	if n > 0 && h.ents[n-1].iv.Lo > e.iv.Lo {
		at := startsAfter(h.ents[:n], e.iv.Lo)
		copy(h.ents[at+1:], h.ents[at:n])
		h.ents[at] = e
	}
}

// startsAfter returns the index of the first entry starting after x.
func startsAfter(ents []past, x int64) int {
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].iv.Lo > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CriticalPathLen returns the longest dependency chain length (in
// instances) of a plan whose dependencies have been built. Barriers are
// not counted.
func CriticalPathLen(p *Plan) int {
	depth := make(map[int]int)
	longest := 0
	for _, in := range p.Instances() { // submission order is topological
		d := 1
		for _, pre := range in.Deps {
			if depth[pre.ID]+1 > d {
				d = depth[pre.ID] + 1
			}
		}
		depth[in.ID] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}

// IsDAGAcyclic verifies the built dependence relation is acyclic (it
// must be, because edges only point from earlier to later submissions).
// Exposed for property tests.
func IsDAGAcyclic(p *Plan) bool {
	for _, in := range p.Instances() {
		for _, d := range in.Deps {
			if d.ID >= in.ID {
				return false
			}
		}
	}
	return true
}
