// Package mem tracks where data lives on a heterogeneous platform.
//
// Buffers are arrays of fixed-size elements. Each memory space (host,
// one per accelerator) holds a set of element intervals that are valid
// there. The directory implements a simplified MSI-style protocol over
// intervals: reads require validity in the executing space (triggering
// transfers from a space that has the data), writes invalidate all other
// spaces, and a flush makes the host whole again (the paper's taskwait
// semantics).
package mem

import (
	"fmt"
	"slices"
	"sort"
)

// Interval is a half-open element range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval covers no elements.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the number of elements covered.
func (iv Interval) Len() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Overlaps reports whether two intervals share any element.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo < o.Hi && o.Lo < iv.Hi
}

// Intersect returns the common sub-interval (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	r := Interval{Lo: max64(iv.Lo, o.Lo), Hi: min64(iv.Hi, o.Hi)}
	if r.Empty() {
		return Interval{}
	}
	return r
}

// String renders the interval as [lo,hi).
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// AppendSplit cuts iv into at most m pieces of ceil(Len/m) elements,
// in order and the last one shorter, appends them to dst and returns
// the extended slice. This is the paper's grid of m equal task
// instances. An empty interval or m < 1 appends nothing.
func (iv Interval) AppendSplit(dst []Interval, m int) []Interval {
	if iv.Empty() || m < 1 {
		return dst
	}
	step := (iv.Len() + int64(m) - 1) / int64(m)
	for lo := iv.Lo; lo < iv.Hi; lo += step {
		dst = append(dst, Interval{Lo: lo, Hi: min64(lo+step, iv.Hi)})
	}
	return dst
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SplitLen is the number of pieces AppendSplit(dst, m) appends, found
// without building them.
func (iv Interval) SplitLen(m int) int64 {
	if iv.Empty() || m < 1 {
		return 0
	}
	step := (iv.Len() + int64(m) - 1) / int64(m)
	return (iv.Len() + step - 1) / step
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Set is a canonical set of elements: sorted, pairwise-disjoint,
// non-adjacent intervals. The zero value is the empty set.
//
// Add, Remove and Clear mutate the set in place, reusing its backing
// array. A Set value copied by assignment shares that array with the
// original, so a copy that must outlive later mutation is taken with
// Clone (Union, Subtract and Directory.ValidIn already return one).
type Set struct {
	ivs []Interval
}

// NewSet builds a set from arbitrary intervals.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Intervals returns the canonical interval list. The slice aliases the
// set's storage: it is valid only until the set's next mutation, and
// callers must not modify it.
func (s Set) Intervals() []Interval { return s.ivs }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Len returns the total number of elements in the set.
func (s Set) Len() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{ivs: make([]Interval, len(s.ivs))}
	copy(c.ivs, s.ivs)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() { s.ivs = s.ivs[:0] }

// Add unions iv into the set, merging overlapping and adjacent
// intervals.
func (s *Set) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find insertion window: all intervals that overlap or are adjacent.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= iv.Lo })
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo <= iv.Hi {
		j++
	}
	if i < j {
		iv.Lo = min64(iv.Lo, s.ivs[i].Lo)
		iv.Hi = max64(iv.Hi, s.ivs[j-1].Hi)
	}
	s.ivs = slices.Replace(s.ivs, i, j, iv)
}

// Remove subtracts iv from the set.
func (s *Set) Remove(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	// The intervals overlapping iv are the run [i, j); only the first
	// and last can keep a remainder outside iv.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > iv.Lo })
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo < iv.Hi {
		j++
	}
	if i == j {
		return
	}
	var keep [2]Interval
	n := 0
	if s.ivs[i].Lo < iv.Lo {
		keep[n] = Interval{Lo: s.ivs[i].Lo, Hi: iv.Lo}
		n++
	}
	if s.ivs[j-1].Hi > iv.Hi {
		keep[n] = Interval{Lo: iv.Hi, Hi: s.ivs[j-1].Hi}
		n++
	}
	s.ivs = slices.Replace(s.ivs, i, j, keep[:n]...)
}

// Contains reports whether every element of iv is in the set.
func (s Set) Contains(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > iv.Lo })
	return i < len(s.ivs) && s.ivs[i].Lo <= iv.Lo && s.ivs[i].Hi >= iv.Hi
}

// prefix returns the leading part of iv the set holds: [iv.Lo, h) for
// the largest h covered, and false when iv.Lo itself is absent.
func (s Set) prefix(iv Interval) (Interval, bool) {
	if iv.Empty() {
		return Interval{}, false
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > iv.Lo })
	if i == len(s.ivs) || s.ivs[i].Lo > iv.Lo {
		return Interval{}, false
	}
	return Interval{Lo: iv.Lo, Hi: min64(s.ivs[i].Hi, iv.Hi)}, true
}

// ContainsPoint reports whether element p is in the set.
func (s Set) ContainsPoint(p int64) bool {
	return s.Contains(Interval{Lo: p, Hi: p + 1})
}

// IntersectInterval returns the elements of iv present in the set.
func (s Set) IntersectInterval(iv Interval) Set {
	var out Set
	if iv.Empty() {
		return out
	}
	for _, cur := range s.ivs {
		if cur.Lo >= iv.Hi {
			break
		}
		x := cur.Intersect(iv)
		if !x.Empty() {
			out.ivs = append(out.ivs, x)
		}
	}
	return out
}

// Missing returns the sub-intervals of iv NOT present in the set, in
// order.
func (s Set) Missing(iv Interval) []Interval {
	var out []Interval
	for g := s.gap(iv); !g.Empty(); g = s.gap(Interval{Lo: g.Hi, Hi: iv.Hi}) {
		out = append(out, g)
	}
	return out
}

// gap returns the first maximal sub-interval of iv absent from the
// set, or an empty interval when the set holds all of iv.
func (s Set) gap(iv Interval) Interval {
	if iv.Empty() {
		return Interval{}
	}
	lo := iv.Lo
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > lo })
	if i < len(s.ivs) && s.ivs[i].Lo <= lo {
		lo = s.ivs[i].Hi
		i++
	}
	if lo >= iv.Hi {
		return Interval{}
	}
	hi := iv.Hi
	if i < len(s.ivs) && s.ivs[i].Lo < hi {
		hi = s.ivs[i].Lo
	}
	return Interval{Lo: lo, Hi: hi}
}

// Union returns the set union with o.
func (s Set) Union(o Set) Set {
	out := s.Clone()
	for _, iv := range o.ivs {
		out.Add(iv)
	}
	return out
}

// Subtract returns s minus o.
func (s Set) Subtract(o Set) Set {
	out := s.Clone()
	for _, iv := range o.ivs {
		out.Remove(iv)
	}
	return out
}

// Equal reports element-wise set equality.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set for diagnostics.
func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	out := "{"
	for i, iv := range s.ivs {
		if i > 0 {
			out += " "
		}
		out += iv.String()
	}
	return out + "}"
}
