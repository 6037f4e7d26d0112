package task

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"heteropart/internal/mem"
)

// oracleDeps recomputes the dependence relation by brute force:
// instance j depends on instance i (i < j, same barrier window) iff
// some access pair on the same buffer overlaps and at least one
// writes.
func oracleDeps(p *Plan) map[[2]int]bool {
	edges := make(map[[2]int]bool)
	window := 0
	windows := make(map[int]int)
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			window++
			continue
		}
		windows[op.Inst.ID] = window
	}
	insts := p.Instances()
	for j := 1; j < len(insts); j++ {
		for i := 0; i < j; i++ {
			a, b := insts[i], insts[j]
			if windows[a.ID] != windows[b.ID] {
				continue
			}
			for _, aa := range a.Accesses {
				for _, ba := range b.Accesses {
					if aa.Buf.ID != ba.Buf.ID || !aa.Interval.Overlaps(ba.Interval) {
						continue
					}
					if aa.Mode.Writes() || ba.Mode.Writes() {
						edges[[2]int{a.ID, b.ID}] = true
					}
				}
			}
		}
	}
	return edges
}

// referenceDeps is the map-based dependence analysis BuildDeps was
// first written as, kept to pin its list order: it returns each
// instance's Deps and Succs as ID lists without touching the plan.
func referenceDeps(p *Plan) (deps, succs map[int][]int) {
	type past struct {
		inst *Instance
		acc  Access
	}
	deps, succs = make(map[int][]int), make(map[int][]int)
	hist := make(map[int][]past)
	for _, op := range p.Ops {
		if op.Kind == OpBarrier {
			hist = make(map[int][]past)
			continue
		}
		in := op.Inst
		depSet := make(map[int]bool)
		for _, a := range in.Accesses {
			for _, h := range hist[a.Buf.ID] {
				if h.inst == in || depSet[h.inst.ID] {
					continue
				}
				if !a.Interval.Overlaps(h.acc.Interval) {
					continue
				}
				conflict := (a.Mode.Reads() && h.acc.Mode.Writes()) ||
					(a.Mode.Writes() && h.acc.Mode.Writes()) ||
					(a.Mode.Writes() && h.acc.Mode.Reads())
				if conflict {
					depSet[h.inst.ID] = true
					deps[in.ID] = append(deps[in.ID], h.inst.ID)
					succs[h.inst.ID] = append(succs[h.inst.ID], in.ID)
				}
			}
		}
		for _, a := range in.Accesses {
			hist[a.Buf.ID] = append(hist[a.Buf.ID], past{inst: in, acc: a})
		}
	}
	return deps, succs
}

// ids lists instance IDs in list order.
func ids(list []*Instance) []int {
	out := make([]int, 0, len(list))
	for _, in := range list {
		out = append(out, in.ID)
	}
	return out
}

// TestQuickBuildDepsMatchesOracle pits BuildDeps against the brute-
// force oracle over randomized plans, and pins the order of every
// list: no duplicates, Succs ascending by ID (the order complete
// releases successors in), and Deps element for element as the
// map-based reference discovers them.
func TestQuickBuildDepsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 300; trial++ {
		dir := mem.NewDirectory(1)
		nbufs := 1 + rng.Intn(3)
		bufs := make([]*mem.Buffer, nbufs)
		for i := range bufs {
			bufs[i] = dir.Register("b", 256, 4)
		}
		modes := []Mode{Read, Write, ReadWrite}

		// Odd trials are long plans with long barrier windows, so each
		// buffer's index holds many entries. Some plans submit in
		// descending interval order, and some touch whole buffers,
		// which stretches how far back an overlap can start.
		nops, barrierOdds := 3+rng.Intn(15), 6
		if trial%2 == 1 {
			nops, barrierOdds = 20+rng.Intn(181), 60
		}
		descending := rng.Intn(3) == 0
		whole := rng.Intn(2) == 0

		var p Plan
		for o := 0; o < nops; o++ {
			if rng.Intn(barrierOdds) == 0 {
				p.Barrier()
				continue
			}
			// Kernel with 1-2 random accesses, the second sometimes on
			// the first's buffer.
			var accs []Access
			for a := 0; a < 1+rng.Intn(2); a++ {
				lo := rng.Int63n(200)
				if descending {
					lo = max(0, 199-int64(o)*200/int64(nops)-rng.Int63n(8))
				}
				iv := mem.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(56)}
				switch r := rng.Intn(10); {
				case r == 0:
					iv.Hi = iv.Lo // empty
				case r == 1 && whole:
					iv = mem.Interval{Hi: 256}
				}
				buf := bufs[rng.Intn(nbufs)]
				if a == 1 && rng.Intn(2) == 0 {
					buf = accs[0].Buf
				}
				accs = append(accs, Access{Buf: buf, Interval: iv, Mode: modes[rng.Intn(3)]})
			}
			frozen := append([]Access(nil), accs...)
			k := &Kernel{
				Name: "k", Size: 256,
				Accesses: func(lo, hi int64) []Access { return frozen },
			}
			p.Submit(k, 0, 256, Unpinned, -1)
		}

		BuildDeps(&p)
		want := oracleDeps(&p)

		got := make(map[[2]int]bool)
		for _, in := range p.Instances() {
			for _, d := range in.Deps {
				got[[2]int{d.ID, in.ID}] = true
			}
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("trial %d: missing edge %v", trial, e)
			}
		}
		for e := range got {
			if !want[e] {
				t.Fatalf("trial %d: spurious edge %v", trial, e)
			}
		}
		// Succs must mirror Deps.
		for _, in := range p.Instances() {
			for _, s := range in.Succs {
				if !got[[2]int{in.ID, s.ID}] {
					t.Fatalf("trial %d: succ %v->%v without dep", trial, in.ID, s.ID)
				}
			}
		}
		if !IsDAGAcyclic(&p) {
			t.Fatalf("trial %d: cycle", trial)
		}

		refDeps, refSuccs := referenceDeps(&p)
		for _, in := range p.Instances() {
			d, s := ids(in.Deps), ids(in.Succs)
			for name, list := range map[string][]int{"deps": d, "succs": s} {
				seen := make(map[int]bool)
				for _, id := range list {
					if seen[id] {
						t.Fatalf("trial %d: %v %s %v repeat %d", trial, in.ID, name, list, id)
					}
					seen[id] = true
				}
			}
			if !sort.IntsAreSorted(s) {
				t.Fatalf("trial %d: %v succs %v not ascending", trial, in.ID, s)
			}
			if !slices.Equal(d, refDeps[in.ID]) {
				t.Fatalf("trial %d: %v deps %v, reference order %v", trial, in.ID, d, refDeps[in.ID])
			}
			if !slices.Equal(s, refSuccs[in.ID]) {
				t.Fatalf("trial %d: %v succs %v, reference order %v", trial, in.ID, s, refSuccs[in.ID])
			}
		}
	}
}

// TestBuildDepsLongSameStartHistories pins BuildDeps against the
// oracle and the reference order on plans that resubmit one chunk grid
// many times without a barrier, STREAM-Loop's shape under DP-Dep: each
// start's history grows long, and the first pass submits the grid in
// shuffled order, so new starts arrive out of order too.
func TestBuildDepsLongSameStartHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(2828))
	modes := []Mode{Read, Write, ReadWrite}
	for trial := 0; trial < 40; trial++ {
		dir := mem.NewDirectory(1)
		bufs := []*mem.Buffer{dir.Register("a", 256, 4), dir.Register("b", 256, 4)}
		grid := (mem.Interval{Hi: 256}).AppendSplit(nil, 2+rng.Intn(15))
		var p Plan
		for it, iters := 0, 10+rng.Intn(30); it < iters; it++ {
			// One kernel per pass, reading one buffer and writing or
			// updating one, over every chunk of the grid.
			in, out := bufs[rng.Intn(2)], bufs[rng.Intn(2)]
			mode := modes[1+rng.Intn(2)]
			k := &Kernel{
				Name: "k", Size: 256,
				Accesses: func(lo, hi int64) []Access {
					iv := mem.Interval{Lo: lo, Hi: hi}
					return []Access{{Buf: in, Interval: iv, Mode: Read}, {Buf: out, Interval: iv, Mode: mode}}
				},
			}
			order := rng.Perm(len(grid))
			if it > 0 && rng.Intn(2) == 0 {
				slices.Sort(order)
			}
			for _, c := range order {
				p.Submit(k, grid[c].Lo, grid[c].Hi, Unpinned, c)
			}
		}

		BuildDeps(&p)
		want := oracleDeps(&p)
		refDeps, refSuccs := referenceDeps(&p)
		edges := 0
		for _, in := range p.Instances() {
			edges += len(in.Deps)
			for _, d := range in.Deps {
				if !want[[2]int{d.ID, in.ID}] {
					t.Fatalf("trial %d: spurious edge %d->%d", trial, d.ID, in.ID)
				}
			}
			if d := ids(in.Deps); !slices.Equal(d, refDeps[in.ID]) {
				t.Fatalf("trial %d: %v deps %v, reference order %v", trial, in.ID, d, refDeps[in.ID])
			}
			if s := ids(in.Succs); !slices.Equal(s, refSuccs[in.ID]) {
				t.Fatalf("trial %d: %v succs %v, reference order %v", trial, in.ID, s, refSuccs[in.ID])
			}
		}
		if edges != len(want) {
			t.Fatalf("trial %d: %d edges, oracle has %d", trial, edges, len(want))
		}
	}
}
