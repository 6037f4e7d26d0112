package mem

import (
	"math/rand"
	"testing"
)

func newDir(t *testing.T) (*Directory, *Buffer) {
	t.Helper()
	d := NewDirectory(2) // host + one GPU
	b := d.Register("a", 1000, 8)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return d, b
}

// reads is a test helper asserting TransfersForRead succeeds.
func reads(t *testing.T, d *Directory, b *Buffer, s Space, q Interval) []Transfer {
	t.Helper()
	ts, err := d.TransfersForRead(b, s, q)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestValidInSurvivesDirectoryUpdates pins ValidIn as a copy: the
// sets it returned must not move when MarkWritten and Commit later
// trim, merge and extend validity in place.
func TestValidInSurvivesDirectoryUpdates(t *testing.T) {
	d, b := newDir(t)
	commitReads := func(q Interval) {
		t.Helper()
		for _, tr := range reads(t, d, b, 1, q) {
			if err := d.Commit(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitReads(iv(100, 300))
	host, dev := d.ValidIn(b, HostSpace), d.ValidIn(b, 1)
	wantHost, wantDev := host.String(), dev.String()

	// Trim the host set, merge into the device set, extend it, split it.
	if err := d.MarkWritten(b, 1, iv(0, 100)); err != nil {
		t.Fatal(err)
	}
	commitReads(iv(300, 400))
	if err := d.MarkWritten(b, HostSpace, iv(350, 360)); err != nil {
		t.Fatal(err)
	}
	if host.String() != wantHost || dev.String() != wantDev {
		t.Fatalf("ValidIn results moved: host %s (was %s), device %s (was %s)",
			host.String(), wantHost, dev.String(), wantDev)
	}
	if got := d.ValidIn(b, 1).String(); got != "{[0,350) [360,400)}" {
		t.Fatalf("device validity = %s", got)
	}
}

func TestRegisterStartsHostValid(t *testing.T) {
	d, b := newDir(t)
	if !d.ValidIn(b, HostSpace).Contains(b.Whole()) {
		t.Fatal("buffer not fully valid on host at start")
	}
	if !d.ValidIn(b, 1).Empty() {
		t.Fatal("buffer valid on GPU at start")
	}
	if b.Bytes(iv(0, 10)) != 80 {
		t.Fatalf("Bytes = %d, want 80", b.Bytes(iv(0, 10)))
	}
}

func TestRegisterRejectsBadShape(t *testing.T) {
	for _, c := range []struct{ elems, size int64 }{{-1, 8}, {10, 0}, {10, -4}} {
		d := NewDirectory(1)
		b := d.Register("bad", c.elems, c.size)
		if d.Err() == nil {
			t.Errorf("Register(%d,%d) did not record an error", c.elems, c.size)
		}
		if b == nil || b.Elems < 0 || b.ElemSize <= 0 {
			t.Errorf("Register(%d,%d) returned an unusable handle %+v", c.elems, c.size, b)
		}
	}
}

func TestNewDirectoryNeedsHost(t *testing.T) {
	d := NewDirectory(0)
	if d.Err() == nil {
		t.Error("NewDirectory(0) did not record an error")
	}
	if d.Spaces() != 1 {
		t.Errorf("spaces = %d, want clamped to 1", d.Spaces())
	}
}

func TestTransfersForReadColdGPU(t *testing.T) {
	d, b := newDir(t)
	ts := reads(t, d, b, 1, iv(100, 200))
	if len(ts) != 1 {
		t.Fatalf("transfers = %v", ts)
	}
	tr := ts[0]
	if tr.From != HostSpace || tr.To != 1 || tr.Interval != iv(100, 200) {
		t.Fatalf("transfer = %v", tr)
	}
	if tr.Bytes() != 100*8 {
		t.Fatalf("bytes = %d", tr.Bytes())
	}
	// Uncommitted: still missing.
	if len(d.MissingIn(b, 1, iv(100, 200))) != 1 {
		t.Fatal("TransfersForRead mutated state")
	}
	if err := d.Commit(tr); err != nil {
		t.Fatal(err)
	}
	if len(reads(t, d, b, 1, iv(100, 200))) != 0 {
		t.Fatal("committed data still transfers")
	}
	// Both spaces now hold the copy.
	if !d.ValidIn(b, HostSpace).Contains(iv(100, 200)) {
		t.Fatal("commit stole host validity")
	}
}

func TestTransfersForReadPartial(t *testing.T) {
	d, b := newDir(t)
	if err := d.Commit(Transfer{Buf: b, Interval: iv(0, 50), From: HostSpace, To: 1}); err != nil {
		t.Fatal(err)
	}
	ts := reads(t, d, b, 1, iv(0, 100))
	if len(ts) != 1 || ts[0].Interval != iv(50, 100) {
		t.Fatalf("partial read transfers = %v", ts)
	}
}

func TestMarkWrittenInvalidatesOthers(t *testing.T) {
	d, b := newDir(t)
	if err := d.MarkWritten(b, 1, iv(200, 300)); err != nil {
		t.Fatal(err)
	}
	if d.ValidIn(b, HostSpace).Contains(iv(200, 300)) {
		t.Fatal("host still valid after device write")
	}
	if !d.ValidIn(b, 1).Contains(iv(200, 300)) {
		t.Fatal("writer not valid after write")
	}
	// Host read now needs a transfer back.
	ts := reads(t, d, b, HostSpace, iv(200, 300))
	if len(ts) != 1 || ts[0].From != 1 {
		t.Fatalf("read-back transfers = %v", ts)
	}
}

func TestFlushTransfersRestoreHost(t *testing.T) {
	d, b := newDir(t)
	if err := d.MarkWritten(b, 1, iv(0, 500)); err != nil {
		t.Fatal(err)
	}
	if d.HostWhole() {
		t.Fatal("host whole despite device write")
	}
	ts, err := d.FlushTransfers(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Interval != iv(0, 500) || ts[0].From != 1 || ts[0].To != HostSpace {
		t.Fatalf("flush = %v", ts)
	}
	for _, tr := range ts {
		if err := d.Commit(tr); err != nil {
			t.Fatal(err)
		}
	}
	if !d.HostWhole() {
		t.Fatal("host not whole after flush")
	}
}

func TestFlushAllDeterministicOrder(t *testing.T) {
	d := NewDirectory(2)
	b1 := d.Register("x", 100, 4)
	b2 := d.Register("y", 100, 4)
	if err := d.MarkWritten(b2, 1, iv(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkWritten(b1, 1, iv(0, 10)); err != nil {
		t.Fatal(err)
	}
	ts, err := d.FlushAllTransfers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Buf != b1 || ts[1].Buf != b2 {
		t.Fatalf("flush order = %v", ts)
	}
}

func TestSourceOfPrefersHost(t *testing.T) {
	d, b := newDir(t)
	if err := d.Commit(Transfer{Buf: b, Interval: iv(0, 100), From: HostSpace, To: 1}); err != nil {
		t.Fatal(err)
	}
	src, prefix, err := d.SourceOf(b, iv(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if src != HostSpace || prefix != iv(0, 100) {
		t.Fatalf("source = %d %v, want host full", src, prefix)
	}
}

func TestSourceOfErrorsWhenLost(t *testing.T) {
	d, b := newDir(t)
	if _, _, err := d.SourceOf(b, iv(1000, 1100)); err == nil { // beyond buffer: valid nowhere
		t.Error("out-of-range source did not error")
	}
}

func TestUnregisteredBufferOperations(t *testing.T) {
	d := NewDirectory(2)
	other := NewDirectory(2)
	b := other.Register("foreign", 10, 4)
	if !d.ValidIn(b, HostSpace).Empty() {
		t.Error("foreign buffer valid somewhere")
	}
	if miss := d.MissingIn(b, HostSpace, iv(0, 10)); len(miss) != 1 || miss[0] != iv(0, 10) {
		t.Errorf("foreign buffer MissingIn = %v, want all missing", miss)
	}
	if _, err := d.TransfersForRead(b, 1, iv(0, 10)); err == nil {
		t.Error("foreign buffer read did not error")
	}
	if err := d.Commit(Transfer{Buf: b, Interval: iv(0, 5), From: HostSpace, To: 1}); err == nil {
		t.Error("foreign buffer commit did not error")
	}
	if err := d.MarkWritten(b, 1, iv(0, 5)); err == nil {
		t.Error("foreign buffer write did not error")
	}
}

func TestInvalidateSpaceSafe(t *testing.T) {
	d, b := newDir(t)
	if err := d.Commit(Transfer{Buf: b, Interval: iv(0, 100), From: HostSpace, To: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.InvalidateSpace(1); err != nil { // host still has everything: fine
		t.Fatal(err)
	}
	if !d.ValidIn(b, 1).Empty() {
		t.Fatal("space 1 still valid")
	}
	if err := d.CoverageInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateSpaceLosingDataErrors(t *testing.T) {
	d, b := newDir(t)
	if err := d.MarkWritten(b, 1, iv(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := d.InvalidateSpace(1); err == nil {
		t.Error("lossy invalidate did not error")
	}
	// The refused invalidate must not have mutated anything.
	if !d.ValidIn(b, 1).Contains(iv(0, 10)) {
		t.Error("refused invalidate still dropped validity")
	}
}

func TestInvalidateHostErrors(t *testing.T) {
	d, _ := newDir(t)
	if err := d.InvalidateSpace(HostSpace); err == nil {
		t.Error("host invalidate did not error")
	}
}

func TestDropDeviceCopiesNeedsWholeHost(t *testing.T) {
	d, b := newDir(t)
	if err := d.MarkWritten(b, 1, iv(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := d.DropDeviceCopies(); err == nil {
		t.Error("DropDeviceCopies with a dirty device did not error")
	}
}

// Property: under random read/write/flush traffic across 3 spaces, the
// coverage invariant holds and every read can always be satisfied.
func TestQuickDirectoryCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		d := NewDirectory(3)
		b := d.Register("buf", 256, 8)
		for step := 0; step < 40; step++ {
			lo := rng.Int63n(256)
			hi := lo + rng.Int63n(256-lo) + 1
			q := iv(lo, hi)
			s := Space(rng.Intn(3))
			switch rng.Intn(3) {
			case 0: // read
				for _, tr := range reads(t, d, b, s, q) {
					if err := d.Commit(tr); err != nil {
						t.Fatal(err)
					}
				}
				if len(d.MissingIn(b, s, q)) != 0 {
					t.Fatal("read did not materialize data")
				}
			case 1: // write (model: read-modify-write locality)
				if err := d.MarkWritten(b, s, q); err != nil {
					t.Fatal(err)
				}
			case 2: // taskwait flush
				all, err := d.FlushAllTransfers()
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range all {
					if err := d.Commit(tr); err != nil {
						t.Fatal(err)
					}
				}
				if !d.HostWhole() {
					t.Fatal("flush left host incomplete")
				}
			}
			if err := d.CoverageInvariant(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}
