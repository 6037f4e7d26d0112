package glinda

import (
	"fmt"
	"math"

	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// Fuse combines per-kernel estimates into a single fused-kernel
// estimate, the foundation of the SP-Unified strategy: all kernels are
// regarded as one, sharing a single partitioning point, with data
// transferred to the device once before the first kernel and back once
// after the last (Section III-C).
//
// Throughputs compose harmonically (the fused kernel processes an
// element by running every kernel on it); transfer bytes are computed
// from the kernels' access lists, counting only *cold* reads — data not
// produced by an earlier kernel in the sequence.
func Fuse(kernels []*task.Kernel, ests []Estimate) (Estimate, error) {
	var out [1]Estimate
	err := fuse(kernels, ests, out[:])
	return out[0], err
}

// fuse fuses one estimate per accelerator: out[a] combines the
// kernels' estimates for accelerator a, kernel i's at ests[i*len(out)+a].
// The transfer fits read only the kernels' accesses, so one pair of
// fits serves every accelerator.
func fuse(kernels []*task.Kernel, ests []Estimate, out []Estimate) error {
	if len(kernels) == 0 || len(ests) != len(kernels)*len(out) {
		return fmt.Errorf("glinda: fuse needs matching kernels (%d) and estimates (%d)",
			len(kernels), len(ests))
	}
	n := kernels[0].Size
	for _, k := range kernels[1:] {
		if k.Size != n {
			return fmt.Errorf("glinda: fused kernels must share an iteration space: %q has %d, want %d",
				k.Name, k.Size, n)
		}
	}
	for a := range out {
		f := Estimate{N: n, B: math.Inf(1)}
		var invRc, invRg float64
		for i := range kernels {
			e := ests[i*len(out)+a]
			if e.Rc <= 0 || e.Rg <= 0 {
				return fmt.Errorf("glinda: fuse needs positive rates, got Rc=%g Rg=%g", e.Rc, e.Rg)
			}
			invRc += 1 / e.Rc
			invRg += 1 / e.Rg
			if !math.IsInf(e.B, 1) && e.B > 0 {
				if math.IsInf(f.B, 1) || e.B > f.B {
					f.B = e.B
				}
			}
		}
		f.Rc = 1 / invRc
		f.Rg = 1 / invRg
		out[a] = f
	}

	// Transfer fits through two partition sizes: cold reads in, the
	// written union back out at the closing taskwait.
	inSlope, inConst := fitBytes(n, ColdReadBytes(kernels, n), ColdReadBytes(kernels, n/2))
	outSlope, outConst := fitBytes(n, WriteBackBytes(kernels, n), WriteBackBytes(kernels, n/2))
	for a := range out {
		out[a].InSlope, out[a].InConst = inSlope, inConst
		out[a].OutSlope, out[a].OutConst = outSlope, outConst
	}
	return nil
}

// ColdReadBytes totals the bytes a device partition [0, s) must receive
// from the host when executing the kernel sequence without intermediate
// synchronization: reads of data already written (or already fetched)
// by an earlier kernel on the same device are free.
func ColdReadBytes(kernels []*task.Kernel, s int64) int64 {
	resident := make(map[int]mem.Set) // buffer ID -> intervals on device
	var total int64
	for _, k := range kernels {
		for _, a := range k.AccessesOf(0, s) {
			set := resident[a.Buf.ID]
			if a.Mode.Reads() {
				for _, miss := range set.Missing(a.Interval) {
					total += a.Buf.Bytes(miss)
					set.Add(miss)
				}
			}
			if a.Mode.Writes() {
				set.Add(a.Interval)
			}
			resident[a.Buf.ID] = set
		}
	}
	return total
}

// WriteBackBytes totals the bytes a device partition [0, s) must send
// back to the host after the kernel sequence: the union of all regions
// written by any kernel. SP-Unified pays this once at the end.
func WriteBackBytes(kernels []*task.Kernel, s int64) int64 {
	written := make(map[int]mem.Set)
	order := make([]*mem.Buffer, 0)
	seen := make(map[int]bool)
	for _, k := range kernels {
		for _, a := range k.AccessesOf(0, s) {
			if !a.Mode.Writes() {
				continue
			}
			set := written[a.Buf.ID]
			set.Add(a.Interval)
			written[a.Buf.ID] = set
			if !seen[a.Buf.ID] {
				seen[a.Buf.ID] = true
				order = append(order, a.Buf)
			}
		}
	}
	var total int64
	for _, b := range order {
		s := written[b.ID]
		total += s.Len() * b.ElemSize
	}
	return total
}

// ProfileFused profiles every kernel against accelerator accelID and
// fuses the estimates — the DP-Converted front end.
func ProfileFused(plat *device.Platform, dir *mem.Directory, kernels []*task.Kernel, accelID int, cfg Config) (Estimate, error) {
	if accelID < 1 || accelID > len(plat.Accels) {
		return Estimate{}, fmt.Errorf("glinda: no accelerator %d", accelID)
	}
	var est [1]Estimate
	err := profileFused(plat, dir, kernels, accelID, est[:], cfg)
	return est[0], err
}

// ProfileFusedAll profiles every kernel against every accelerator and
// fuses each accelerator's estimates — the SP-Unified front end. Entry
// i equals ProfileFused's estimate for accelerator i+1; each kernel's
// host probe runs once (see ProfileAll).
func ProfileFusedAll(plat *device.Platform, dir *mem.Directory, kernels []*task.Kernel, cfg Config) ([]Estimate, error) {
	if len(plat.Accels) == 0 {
		return nil, fmt.Errorf("glinda: no accelerator to profile")
	}
	ests := make([]Estimate, len(plat.Accels))
	if err := profileFused(plat, dir, kernels, 1, ests, cfg); err != nil {
		return nil, err
	}
	return ests, nil
}

// profileFused fills out[a] with the fused estimate for accelerator
// first+a.
func profileFused(plat *device.Platform, dir *mem.Directory, kernels []*task.Kernel, first int, out []Estimate, cfg Config) error {
	ests := make([]Estimate, len(kernels)*len(out))
	for i, k := range kernels {
		if err := probe(plat, dir, k, first, ests[i*len(out):(i+1)*len(out)], cfg); err != nil {
			return fmt.Errorf("glinda: profiling %q: %w", k.Name, err)
		}
	}
	return fuse(kernels, ests, out)
}
