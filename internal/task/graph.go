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
//
// BuildDeps rebuilds the whole graph on every call and marks the plan
// built; the runtime calls it only when Plan.Stale reports a change.
func BuildDeps(p *Plan) {
	var stack [8]history
	hist := newHistories(p, stack[:0])
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
			for b := range hist {
				hist[b].clear()
			}
			continue
		}
		in := op.Inst
		stamp := i + 1
		seen[i] = stamp
		first := len(slab)
		for _, a := range in.Accesses {
			from := len(slab)
			// depend makes e's instance a dependency of this one when
			// their accesses overlap and conflict. RAW: we read what
			// they wrote. WAW: we write what they wrote. WAR: we write
			// what they read.
			depend := func(e *past) {
				if seen[e.op] == stamp || !a.Interval.Overlaps(e.iv) {
					return
				}
				conflict := (a.Mode.Reads() && e.mode.Writes()) ||
					(a.Mode.Writes() && e.mode.Writes()) ||
					(a.Mode.Writes() && e.mode.Reads())
				if conflict {
					seen[e.op] = stamp
					slab = append(slab, p.Ops[e.op].Inst)
					nsucc[e.op]++
				}
			}
			// A short history is scanned whole, in submission order; a
			// longer one by its chains, by start and then in submission
			// order. Submission order is ascending ID.
			h := &hist[a.Buf.ID]
			if len(h.ents) <= shortHistory {
				for j := range h.ents {
					depend(&h.ents[j])
				}
			} else {
				for _, c := range h.window(a.Interval) {
					for j := c.head; j >= 0; j = h.ents[j].next {
						depend(&h.ents[j])
					}
				}
			}
			slices.SortFunc(slab[from:], func(a, b *Instance) int { return a.ID - b.ID })
		}
		in.Deps = nil
		if len(slab) > first {
			in.Deps = slab[first:len(slab):len(slab)]
		}
		for _, a := range in.Accesses {
			hist[a.Buf.ID].insert(a.Interval, i, a.Mode)
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
	p.built = true
}

// past is one access in a buffer's history: its interval, mode, the
// position of its instance's op in the plan, and the index of the next
// newer entry with the same start (-1 for none). Holding no pointer,
// the histories are scanned by the garbage collector for free.
type past struct {
	iv   mem.Interval
	op   int32
	next int32
	mode Mode
}

// chain is one distinct interval start in a history: the indexes of
// its oldest and newest entries, the ones between following through
// past.next in submission order. The start itself is the entries'.
type chain struct {
	head, tail int32
}

// history is one buffer's non-empty accesses since the last barrier.
// Entries only ever append, in submission order. Once there are more
// than shortHistory of them, chains index them by distinct start, in
// ascending start order, so re-submitting a chunk grid is a search
// plus an append. maxLen is the longest interval among the entries: an
// access can overlap only entries that start before its end and less
// than that length before its start.
type history struct {
	ents   []past
	chains []chain
	maxLen int64
}

// shortHistory is the entry count up to which a plain scan of a
// history beats locating the candidates by binary search.
const shortHistory = 8

// newHistories sizes each buffer's history, indexed by buffer ID (dense
// from Register), for the most non-empty accesses any barrier window
// makes to the buffer, and carves every history's entries from one
// slab and the chains of those that can outgrow shortHistory from
// another. The histories themselves are appended to hist, which a
// caller's stack array can back.
func newHistories(p *Plan, hist []history) []history {
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
	total, long := 0, 0
	for _, c := range counts {
		total += c.most
		if c.most > shortHistory {
			long += c.most
		}
	}
	ents := make([]past, total)
	chains := make([]chain, long)
	hist = slices.Grow(hist[:0], len(counts))[:len(counts)]
	for b, c := range counts {
		hist[b] = history{ents: ents[:0:c.most]}
		ents = ents[c.most:]
		if c.most > shortHistory {
			hist[b].chains, chains = chains[:0:c.most], chains[c.most:]
		}
	}
	return hist
}

// clear empties the history at a barrier, keeping its capacity.
func (h *history) clear() {
	*h = history{ents: h.ents[:0], chains: h.chains[:0]}
}

// window returns the chains whose entries can overlap iv, in ascending
// start order.
func (h *history) window(iv mem.Interval) []chain {
	if iv.Empty() {
		return nil
	}
	return h.chains[h.startsAfter(iv.Lo-h.maxLen):h.startsAfter(iv.Hi-1)]
}

// insert adds the access of op i to the history; empty intervals
// overlap nothing and are dropped. A start already present appends the
// entry to its chain; a new start is inserted among the chains in
// order.
func (h *history) insert(iv mem.Interval, i int, mode Mode) {
	if iv.Empty() {
		return
	}
	h.maxLen = max(h.maxLen, iv.Len())
	e := int32(len(h.ents))
	h.ents = append(h.ents, past{iv: iv, op: int32(i), next: -1, mode: mode})
	if cap(h.chains) == 0 {
		// It never outgrows shortHistory, so it is only ever scanned.
		return
	}
	n := len(h.chains)
	if n == 0 || h.start(n-1) < iv.Lo {
		h.chains = append(h.chains, chain{head: e, tail: e})
		return
	}
	at := h.startsAfter(iv.Lo - 1)
	if c := &h.chains[at]; h.start(at) == iv.Lo {
		h.ents[c.tail].next = e
		c.tail = e
		return
	}
	h.chains = slices.Insert(h.chains, at, chain{head: e, tail: e})
}

// start returns the interval start of chain c.
func (h *history) start(c int) int64 { return h.ents[h.chains[c].head].iv.Lo }

// startsAfter returns the index of the first chain starting after x.
func (h *history) startsAfter(x int64) int {
	lo, hi := 0, len(h.chains)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.start(mid) > x {
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
