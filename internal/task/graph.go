package task

import "heteropart/internal/mem"

// BuildDeps computes the data-dependency edges of a plan, mirroring the
// OmpSs runtime's dependence analysis: for each newly submitted
// instance, overlap its accesses against earlier instances' accesses on
// the same buffer and add RAW, WAR and WAW edges. Barriers order
// everything before them ahead of everything after them, so dependence
// tracking restarts at each barrier (the runtime enforces the barrier
// itself).
//
// Edges are deduplicated. Each Deps list is in discovery order (by
// access, then by the buffer's access history); Succs lists are in
// submission order, which is ascending ID.
func BuildDeps(p *Plan) {
	type past struct {
		inst *Instance
		acc  Access
	}
	// Instance IDs are dense from Submit, and buffer IDs from Register,
	// so the analysis state is slices indexed by ID.
	// seen[id] == in.ID+1 marks id as already a dependency of in;
	// nsucc[id] counts id's successors.
	seen := make([]int, p.IDBound())
	nsucc := make([]int, p.IDBound())
	// hist[buf] is the access history on buffer buf since the last
	// barrier; barriers truncate it, keeping the capacity.
	var hist [][]past
	// Every Deps list is a capped window of one shared slab.
	var slab []*Instance

	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			for b := range hist {
				hist[b] = hist[b][:0]
			}
			continue
		}
		in := op.Inst
		stamp := in.ID + 1
		first := len(slab)
		for _, a := range in.Accesses {
			if a.Buf.ID >= len(hist) {
				continue
			}
			for _, h := range hist[a.Buf.ID] {
				if h.inst == in || seen[h.inst.ID] == stamp {
					continue
				}
				if !a.Interval.Overlaps(h.acc.Interval) {
					continue
				}
				// RAW: we read what they wrote. WAW: we write what
				// they wrote. WAR: we write what they read.
				conflict := (a.Mode.Reads() && h.acc.Mode.Writes()) ||
					(a.Mode.Writes() && h.acc.Mode.Writes()) ||
					(a.Mode.Writes() && h.acc.Mode.Reads())
				if conflict {
					seen[h.inst.ID] = stamp
					slab = append(slab, h.inst)
					nsucc[h.inst.ID]++
				}
			}
		}
		in.Deps = nil
		if len(slab) > first {
			in.Deps = slab[first:len(slab):len(slab)]
		}
		for _, a := range in.Accesses {
			if a.Buf.ID >= len(hist) {
				hist = append(hist, make([][]past, a.Buf.ID+1-len(hist))...)
			}
			hist[a.Buf.ID] = append(hist[a.Buf.ID], past{inst: in, acc: a})
		}
	}

	// Succs mirror Deps and share one exactly sized slab. A Deps entry
	// always precedes its dependent, so walking in submission order
	// sizes each list before it is filled, in ascending ID order.
	succs := make([]*Instance, len(slab))
	for _, op := range p.Ops {
		if op.Kind != OpSubmit {
			continue
		}
		in := op.Inst
		in.Succs = nil
		if c := nsucc[in.ID]; c > 0 {
			in.Succs, succs = succs[:0:c], succs[c:]
		}
		for _, d := range in.Deps {
			d.Succs = append(d.Succs, in)
		}
	}
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

// WriteFootprint returns the union of regions an instance writes, per
// buffer ID.
func WriteFootprint(in *Instance) map[int]mem.Set {
	out := make(map[int]mem.Set)
	for _, a := range in.Accesses {
		if !a.Mode.Writes() {
			continue
		}
		s := out[a.Buf.ID]
		s.Add(a.Interval)
		out[a.Buf.ID] = s
	}
	return out
}
