package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func iv(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

func TestIntervalBasics(t *testing.T) {
	if !iv(5, 5).Empty() || !iv(7, 3).Empty() || iv(0, 1).Empty() {
		t.Fatal("Empty wrong")
	}
	if iv(0, 10).Len() != 10 || iv(5, 3).Len() != 0 {
		t.Fatal("Len wrong")
	}
	if !iv(0, 10).Overlaps(iv(9, 20)) || iv(0, 10).Overlaps(iv(10, 20)) {
		t.Fatal("Overlaps wrong at boundary")
	}
	if got := iv(0, 10).Intersect(iv(5, 20)); got != iv(5, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := iv(0, 5).Intersect(iv(10, 20)); !got.Empty() {
		t.Fatalf("disjoint Intersect = %v", got)
	}
	if iv(3, 9).String() != "[3,9)" {
		t.Fatal("String wrong")
	}
}

func TestSetAddMergesAdjacent(t *testing.T) {
	s := NewSet(iv(0, 10), iv(10, 20))
	if len(s.Intervals()) != 1 || s.Intervals()[0] != iv(0, 20) {
		t.Fatalf("adjacent not merged: %v", s.String())
	}
}

func TestSetAddMergesOverlap(t *testing.T) {
	s := NewSet(iv(0, 10), iv(30, 40), iv(5, 35))
	if len(s.Intervals()) != 1 || s.Intervals()[0] != iv(0, 40) {
		t.Fatalf("overlap not merged: %v", s.String())
	}
}

func TestSetAddKeepsDisjoint(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30))
	if len(s.Intervals()) != 2 {
		t.Fatalf("disjoint merged: %v", s.String())
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSetAddEmptyNoop(t *testing.T) {
	s := NewSet(iv(0, 10))
	s.Add(iv(5, 5))
	if s.Len() != 10 {
		t.Fatal("empty add changed set")
	}
}

func TestSetRemoveSplits(t *testing.T) {
	s := NewSet(iv(0, 100))
	s.Remove(iv(40, 60))
	want := NewSet(iv(0, 40), iv(60, 100))
	if !s.Equal(want) {
		t.Fatalf("got %v, want %v", s.String(), want.String())
	}
}

// TestSetRemoveSplitsInsideLongSet splits one interval in the middle
// of a long set, growing it by one in place, then removes a span that
// trims one interval, swallows two and trims a third.
func TestSetRemoveSplitsInsideLongSet(t *testing.T) {
	var s Set
	for lo := int64(0); lo < 200; lo += 20 {
		s.Add(iv(lo, lo+10))
	}
	s.Remove(iv(103, 107))
	want := []Interval{iv(0, 10), iv(20, 30), iv(40, 50), iv(60, 70), iv(80, 90),
		iv(100, 103), iv(107, 110), iv(120, 130), iv(140, 150), iv(160, 170), iv(180, 190)}
	if got := s.Intervals(); !slices.Equal(got, want) {
		t.Fatalf("split: got %v, want %v", got, want)
	}
	s.Remove(iv(25, 85))
	want = []Interval{iv(0, 10), iv(20, 25), iv(85, 90),
		iv(100, 103), iv(107, 110), iv(120, 130), iv(140, 150), iv(160, 170), iv(180, 190)}
	if got := s.Intervals(); !slices.Equal(got, want) {
		t.Fatalf("span: got %v, want %v", got, want)
	}
}

// TestSetCopiesSurviveMutation pins the in-place Set: Clone, Union and
// Subtract return copies that later Add and Remove calls on the
// original (merges, splits, inserts, clears) must not reach.
func TestSetCopiesSurviveMutation(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30), iv(40, 50), iv(60, 70))
	c := s.Clone()
	u := s.Union(NewSet(iv(80, 90)))
	d := s.Subtract(NewSet(iv(22, 24)))
	want := map[string]string{"clone": c.String(), "union": u.String(), "subtract": d.String()}

	s.Add(iv(10, 20))    // merge
	s.Remove(iv(44, 46)) // split in place
	s.Add(iv(5, 65))     // swallow
	s.Remove(iv(0, 1))
	s.Add(iv(100, 110)) // append
	s.Clear()
	s.Add(iv(3, 4))

	for name, got := range map[string]Set{"clone": c, "union": u, "subtract": d} {
		if got.String() != want[name] {
			t.Errorf("%s changed with the original: %s, want %s", name, got.String(), want[name])
		}
	}
}

func TestSetRemoveEdges(t *testing.T) {
	s := NewSet(iv(10, 20))
	s.Remove(iv(0, 15))
	if !s.Equal(NewSet(iv(15, 20))) {
		t.Fatalf("left trim: %v", s.String())
	}
	s.Remove(iv(18, 30))
	if !s.Equal(NewSet(iv(15, 18))) {
		t.Fatalf("right trim: %v", s.String())
	}
	s.Remove(iv(0, 100))
	if !s.Empty() {
		t.Fatalf("full remove: %v", s.String())
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30))
	cases := []struct {
		q    Interval
		want bool
	}{
		{iv(0, 10), true},
		{iv(2, 8), true},
		{iv(5, 15), false},
		{iv(10, 20), false},
		{iv(20, 30), true},
		{iv(29, 31), false},
		{iv(5, 5), true}, // empty
	}
	for _, c := range cases {
		if got := s.Contains(c.q); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !s.ContainsPoint(25) || s.ContainsPoint(15) {
		t.Fatal("ContainsPoint wrong")
	}
}

func TestSetMissing(t *testing.T) {
	s := NewSet(iv(10, 20), iv(30, 40))
	got := s.Missing(iv(0, 50))
	want := []Interval{iv(0, 10), iv(20, 30), iv(40, 50)}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
	if m := s.Missing(iv(12, 18)); len(m) != 0 {
		t.Fatalf("covered query missing %v", m)
	}
	if m := s.Missing(iv(5, 5)); len(m) != 0 {
		t.Fatalf("empty query missing %v", m)
	}
}

func TestSetIntersectInterval(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30))
	got := s.IntersectInterval(iv(5, 25))
	want := NewSet(iv(5, 10), iv(20, 25))
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got.String(), want.String())
	}
}

func TestSetUnionSubtract(t *testing.T) {
	a := NewSet(iv(0, 10))
	b := NewSet(iv(5, 15))
	if u := a.Union(b); !u.Equal(NewSet(iv(0, 15))) {
		t.Fatalf("union = %v", u.String())
	}
	if d := a.Subtract(b); !d.Equal(NewSet(iv(0, 5))) {
		t.Fatalf("subtract = %v", d.String())
	}
	// Originals untouched.
	if a.Len() != 10 || b.Len() != 10 {
		t.Fatal("union/subtract mutated operands")
	}
}

func TestSetString(t *testing.T) {
	var e Set
	if e.String() != "{}" {
		t.Fatal("empty string wrong")
	}
	s := NewSet(iv(0, 1), iv(5, 9))
	if s.String() != "{[0,1) [5,9)}" {
		t.Fatalf("String = %q", s.String())
	}
}

// reference is a bitmap model of a set over a small universe, used to
// verify the interval set against an oracle.
type reference [64]bool

func (r *reference) add(iv Interval)    { r.each(iv, func(i int) { r[i] = true }) }
func (r *reference) remove(iv Interval) { r.each(iv, func(i int) { r[i] = false }) }
func (r *reference) each(iv Interval, f func(int)) {
	for i := max64(iv.Lo, 0); i < min64(iv.Hi, 64); i++ {
		f(int(i))
	}
}

func clampIv(a, b uint8) Interval {
	lo, hi := int64(a%64), int64(b%64)
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{Lo: lo, Hi: hi}
}

// Property: Set agrees with a bitmap oracle under random add/remove
// sequences, and stays canonical (sorted, disjoint, non-adjacent).
func TestQuickSetMatchesOracle(t *testing.T) {
	f := func(ops []uint8, bounds []uint8) bool {
		var s Set
		var ref reference
		for i := 0; i+1 < len(bounds); i += 2 {
			op := uint8(0)
			if i/2 < len(ops) {
				op = ops[i/2]
			}
			q := clampIv(bounds[i], bounds[i+1])
			if op%2 == 0 {
				s.Add(q)
				ref.add(q)
			} else {
				s.Remove(q)
				ref.remove(q)
			}
		}
		// Compare membership pointwise.
		for p := int64(0); p < 64; p++ {
			if s.ContainsPoint(p) != ref[p] {
				return false
			}
		}
		// Canonical form check.
		prev := Interval{Lo: -2, Hi: -2}
		for _, cur := range s.Intervals() {
			if cur.Empty() || cur.Lo <= prev.Hi {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: Missing(iv) and IntersectInterval(iv) partition iv.
func TestQuickMissingPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var s Set
		for k := 0; k < rng.Intn(6); k++ {
			lo := rng.Int63n(100)
			s.Add(iv(lo, lo+rng.Int63n(20)+1))
		}
		q := iv(rng.Int63n(100), rng.Int63n(100))
		if q.Hi < q.Lo {
			q.Lo, q.Hi = q.Hi, q.Lo
		}
		var total int64
		for _, m := range s.Missing(q) {
			total += m.Len()
			if !s.IntersectInterval(m).Empty() {
				t.Fatalf("missing %v intersects set %v", m, s.String())
			}
		}
		inSet := s.IntersectInterval(q)
		if total+inSet.Len() != q.Len() {
			t.Fatalf("partition broken: set=%v q=%v missing=%d in=%d", s.String(), q, total, inSet.Len())
		}
	}
}
