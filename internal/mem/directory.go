package mem

import "fmt"

// Space identifies a memory space: HostSpace (0) is the CPU's memory,
// space i >= 1 is the private memory of accelerator i. Space numbering
// matches platform device IDs.
type Space int

// HostSpace is the CPU memory, where all buffers start and where
// taskwait flushes converge.
const HostSpace Space = 0

// Buffer describes a named array registered with the directory.
type Buffer struct {
	ID       int
	Name     string
	Elems    int64
	ElemSize int64 // bytes per element
}

// Bytes returns the byte size of an element interval of this buffer.
func (b *Buffer) Bytes(iv Interval) int64 { return iv.Len() * b.ElemSize }

// Whole returns the buffer's full extent.
func (b *Buffer) Whole() Interval { return Interval{Lo: 0, Hi: b.Elems} }

// Transfer is a data movement the directory asks the platform to
// perform.
type Transfer struct {
	Buf      *Buffer
	Interval Interval
	From, To Space
}

// Bytes is the payload size of the transfer.
func (t Transfer) Bytes() int64 { return t.Buf.Bytes(t.Interval) }

// String renders the transfer for traces.
func (t Transfer) String() string {
	return fmt.Sprintf("%s%v %d->%d (%dB)", t.Buf.Name, t.Interval, t.From, t.To, t.Bytes())
}

// Directory tracks, for every buffer, which element intervals are valid
// in which spaces. It is purely bookkeeping: callers obtain the
// transfers required for an access, model their cost, then commit the
// resulting state changes.
//
// Construction and registration faults are deferred: NewDirectory and
// Register record the first misuse and Err reports it, so the builder
// call-chains in the apps layer stay fluent while the runtime refuses
// to execute against a faulted directory.
type Directory struct {
	spaces int
	// buffers is indexed by buffer ID (IDs are dense from Register).
	buffers []*bufState
	err     error
	// prefer, when non-nil, orders candidate sources per destination
	// (SetSourcePreference); nil means the host-first default.
	prefer func(to Space) []Space
	// hostFirst is the default source order, built once.
	hostFirst []Space
}

type bufState struct {
	buf   *Buffer
	valid []Set // indexed by Space
}

// NewDirectory creates a directory for a platform with the given number
// of spaces (1 host + number of accelerators). spaces < 1 is recorded
// as a deferred error and clamped to the host space alone.
func NewDirectory(spaces int) *Directory {
	d := &Directory{spaces: spaces}
	if spaces < 1 {
		d.spaces = 1
		d.err = fmt.Errorf("mem: need at least the host space, got %d", spaces)
	}
	d.hostFirst = make([]Space, d.spaces)
	for i := range d.hostFirst {
		d.hostFirst[i] = Space(i)
	}
	return d
}

// Err reports the first construction or registration fault, or nil.
func (d *Directory) Err() error { return d.err }

func (d *Directory) setErr(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Spaces reports the number of memory spaces.
func (d *Directory) Spaces() int { return d.spaces }

// Register adds a buffer. Its full extent starts valid in the host
// space only. Invalid dimensions are recorded as a deferred error and
// clamped (elems to 0, elemSize to 1) so the returned buffer is still
// usable as a handle.
func (d *Directory) Register(name string, elems, elemSize int64) *Buffer {
	if elems < 0 || elemSize <= 0 {
		d.setErr(fmt.Errorf("mem: bad buffer %q: elems=%d elemSize=%d", name, elems, elemSize))
		if elems < 0 {
			elems = 0
		}
		if elemSize <= 0 {
			elemSize = 1
		}
	}
	b := &Buffer{ID: len(d.buffers), Name: name, Elems: elems, ElemSize: elemSize}
	st := &bufState{buf: b, valid: make([]Set, d.spaces)}
	st.valid[HostSpace].Add(b.Whole())
	d.buffers = append(d.buffers, st)
	return b
}

// state returns the bookkeeping record for b, or nil if b was never
// registered with this directory.
func (d *Directory) state(b *Buffer) *bufState {
	if b.ID < 0 || b.ID >= len(d.buffers) {
		return nil
	}
	return d.buffers[b.ID]
}

func unregistered(b *Buffer) error {
	return fmt.Errorf("mem: buffer %q not registered", b.Name)
}

// ValidIn returns the set of elements of b valid in space s (a copy).
// An unregistered buffer yields the empty set.
func (d *Directory) ValidIn(b *Buffer, s Space) Set {
	st := d.state(b)
	if st == nil {
		return Set{}
	}
	return st.valid[s].Clone()
}

// MissingIn returns the sub-intervals of iv not valid in space s. An
// unregistered buffer is missing everywhere.
func (d *Directory) MissingIn(b *Buffer, s Space, iv Interval) []Interval {
	st := d.state(b)
	if st == nil {
		if iv.Empty() {
			return nil
		}
		return []Interval{iv}
	}
	return st.valid[s].Missing(iv)
}

// SourceOf picks a space that holds iv of b valid, preferring the host.
// The interval may be split across sources; SourceOf returns the source
// covering the *start* of iv together with the prefix length covered, so
// callers loop until the whole interval is sourced. If no space holds
// the start of iv the update has been lost, which is a coherence bug —
// reported as an error.
func (d *Directory) SourceOf(b *Buffer, iv Interval) (Space, Interval, error) {
	return d.sourceFor(b, iv, d.searchOrder())
}

func (d *Directory) sourceFor(b *Buffer, iv Interval, order []Space) (Space, Interval, error) {
	st := d.state(b)
	if st == nil {
		return 0, Interval{}, unregistered(b)
	}
	for _, s := range order {
		if h, ok := st.valid[s].prefix(iv); ok {
			return s, h, nil
		}
	}
	return 0, Interval{}, fmt.Errorf("mem: %s%v valid nowhere (lost update?)", b.Name, iv)
}

// searchOrder is the default source preference: the host first
// (taskwait keeps it whole, and host-sourced transfers match OmpSs
// behaviour), then devices in ID order. The slice is shared; callers
// only read it.
func (d *Directory) searchOrder() []Space { return d.hostFirst }

// SetSourcePreference installs a per-destination source ordering used
// by TransfersForRead's route selection. The runtime derives it from
// the platform's link graph — e.g. preferring a peer with a direct
// P2P edge over a host round-trip — for platforms whose topology
// makes the default host-first order suboptimal. order(to) must
// return every space exactly once, deterministically; the directory
// only reads the returned slice, so order may hand out a memoized one.
// nil restores the default. SourceOf (the exported single-lookup
// form) always uses the default order so its contract stays stable.
func (d *Directory) SetSourcePreference(order func(to Space) []Space) {
	d.prefer = order
}

// orderFor resolves the source ordering for reads destined to space s.
func (d *Directory) orderFor(s Space) []Space {
	if d.prefer != nil {
		return d.prefer(s)
	}
	return d.searchOrder()
}

// TransfersForRead computes the transfers needed before space s can read
// iv of b. It does not mutate state; apply each transfer with Commit.
// It fails when some required element is valid nowhere (lost update).
// Source selection follows the installed source preference (see
// SetSourcePreference), defaulting to host-first.
func (d *Directory) TransfersForRead(b *Buffer, s Space, iv Interval) ([]Transfer, error) {
	st := d.state(b)
	if st == nil {
		if iv.Empty() {
			return nil, nil
		}
		return nil, unregistered(b)
	}
	var out []Transfer
	order := d.orderFor(s)
	have := &st.valid[s]
	for g := have.gap(iv); !g.Empty(); g = have.gap(Interval{Lo: g.Hi, Hi: iv.Hi}) {
		for cur := g; !cur.Empty(); {
			src, prefix, err := d.sourceFor(b, cur, order)
			if err != nil {
				return nil, err
			}
			out = append(out, Transfer{Buf: b, Interval: prefix, From: src, To: s})
			cur.Lo = prefix.Hi
		}
	}
	return out, nil
}

// Commit records a completed transfer: the destination space now also
// holds the interval valid.
func (d *Directory) Commit(t Transfer) error {
	st := d.state(t.Buf)
	if st == nil {
		return unregistered(t.Buf)
	}
	st.valid[t.To].Add(t.Interval)
	return nil
}

// MarkWritten records that space s wrote iv of b: s becomes the only
// valid holder of those elements.
func (d *Directory) MarkWritten(b *Buffer, s Space, iv Interval) error {
	st := d.state(b)
	if st == nil {
		return unregistered(b)
	}
	for i := range st.valid {
		if Space(i) == s {
			st.valid[i].Add(iv)
		} else {
			st.valid[i].Remove(iv)
		}
	}
	return nil
}

// FlushTransfers returns the transfers required to make the host's copy
// of b whole (the taskwait flush). Elements already valid on the host
// move nothing.
func (d *Directory) FlushTransfers(b *Buffer) ([]Transfer, error) {
	return d.TransfersForRead(b, HostSpace, b.Whole())
}

// FlushAllTransfers returns flush transfers for every registered buffer,
// in registration order (deterministic).
func (d *Directory) FlushAllTransfers() ([]Transfer, error) {
	var out []Transfer
	for _, st := range d.buffers {
		txs, err := d.FlushTransfers(st.buf)
		if err != nil {
			return nil, err
		}
		out = append(out, txs...)
	}
	return out, nil
}

// DropDeviceCopies clears validity in every non-host space. The OmpSs
// taskwait not only flushes dirty data to the host but releases the
// device-side allocations, so data used again after a taskwait must be
// re-transferred — the mechanism behind the paper's "multiple data
// transfers" cost of synchronization. It fails if the host is not whole
// (callers flush first).
func (d *Directory) DropDeviceCopies() error {
	if !d.HostWhole() {
		return fmt.Errorf("mem: DropDeviceCopies before the host is whole")
	}
	for _, st := range d.buffers {
		for i := 1; i < len(st.valid); i++ {
			st.valid[i].Clear()
		}
	}
	return nil
}

// Reset restores the pristine state: every buffer valid in full on the
// host only. Glinda's profiler uses it to leave no footprint after its
// probe runs (probes run on the real problem's buffers).
func (d *Directory) Reset() {
	for _, st := range d.buffers {
		for i := range st.valid {
			st.valid[i].Clear()
		}
		st.valid[HostSpace].Add(st.buf.Whole())
	}
}

// InvalidateSpace drops all validity in space s (e.g. device reset in
// failure-injection tests). It fails without mutating anything if that
// would lose the only copy of any element.
func (d *Directory) InvalidateSpace(s Space) error {
	if s == HostSpace {
		return fmt.Errorf("mem: cannot invalidate the host space")
	}
	for _, st := range d.buffers {
		only := st.valid[s].Clone()
		for i := range st.valid {
			if Space(i) == s {
				continue
			}
			only = only.Subtract(st.valid[i])
		}
		if !only.Empty() {
			return fmt.Errorf("mem: invalidating space %d loses %s%v", s, st.buf.Name, only.Intervals()[0])
		}
	}
	for _, st := range d.buffers {
		st.valid[s].Clear()
	}
	return nil
}

// HostWhole reports whether the host holds every registered buffer in
// full (the post-taskwait invariant).
func (d *Directory) HostWhole() bool {
	for _, st := range d.buffers {
		if !st.valid[HostSpace].Contains(st.buf.Whole()) {
			return false
		}
	}
	return true
}

// CoverageInvariant checks that every element of every buffer is valid
// in at least one space (no lost updates). It returns an error naming
// the first violation.
func (d *Directory) CoverageInvariant() error {
	for _, st := range d.buffers {
		var covered Set
		for i := range st.valid {
			covered = covered.Union(st.valid[i])
		}
		if miss := covered.Missing(st.buf.Whole()); len(miss) > 0 {
			return fmt.Errorf("mem: %s%v valid in no space", st.buf.Name, miss[0])
		}
	}
	return nil
}
