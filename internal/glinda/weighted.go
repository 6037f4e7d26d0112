package glinda

import (
	"fmt"
	"math"

	"heteropart/internal/device"
	"heteropart/internal/mem"
	"heteropart/internal/task"
)

// This file implements the imbalanced-workload pipeline of Glinda's
// ICS'14 companion (reference [9], "Improving Performance by Matching
// Imbalanced Workloads with Heterogeneous Platforms"): when the
// per-element cost varies across the iteration space, a single β is
// the wrong abstraction — the partition point must balance *weighted*
// work, and the CPU's own chunks must be weight-equal rather than
// element-equal. Weight is priced over ranges by the kernel's Flops,
// as transfer bytes are by its accesses, so no per-element array is
// built: a decision makes O(log n) cost calls and a cut O(m log n).

// ImbalanceRatio measures how uneven a kernel's iteration space is:
// the per-element cost of the heaviest sampled end over the lightest.
// 1.0 means perfectly uniform.
func ImbalanceRatio(k *task.Kernel, sample int64) float64 {
	n := k.Size
	if sample <= 0 || sample*2 > n || k.Flops == nil {
		return 1
	}
	head := k.Flops(0, sample) / float64(sample)
	tail := k.Flops(n-sample, n) / float64(sample)
	if head <= 0 || tail <= 0 {
		return 1
	}
	if head > tail {
		return head / tail
	}
	return tail / head
}

// prefixBytes is the transfer bytes of the accelerator's share
// [0, s): reads in plus writes out. The share runs as one instance over
// the range, so this is exactly what the runtime moves for it, and one
// access call prices the whole range.
func prefixBytes(k *task.Kernel, s int64) float64 {
	in, out := accessBytes(k, s)
	return float64(in + out)
}

// CutWeighted divides [lo, hi) into at most m spans of roughly equal
// weight — the host-side chunking that keeps all m worker threads
// equally busy on an imbalanced range. Span i ends at the first
// element whose weight prefix k.Flops(0, end) reaches i/m of the
// range's weight; a binary search finds it, so a cut makes
// O(m log n) cost calls.
func CutWeighted(k *task.Kernel, lo, hi int64, m int) []mem.Interval {
	if hi <= lo || m < 1 {
		return nil
	}
	base := k.Flops(0, lo)
	total := k.Flops(0, hi) - base
	if total <= 0 {
		// Weightless range: fall back to equal elements.
		return mem.Interval{Lo: lo, Hi: hi}.AppendSplit(nil, m)
	}
	out := make([]mem.Interval, 0, min(int64(m), hi-lo))
	at := lo
	for i := 1; i <= m && at < hi; i++ {
		end := hi
		if i < m {
			target := base + total*float64(i)/float64(m)
			// The first end in (at, hi) whose prefix reaches the
			// target, else hi.
			for e := at + 1; e < end; {
				if mid := e + (end-e)/2; k.Flops(0, mid) >= target {
					end = mid
				} else {
					e = mid + 1
				}
			}
		}
		out = append(out, mem.Interval{Lo: at, Hi: end})
		at = end
	}
	return out
}

// AnalyzeImbalanced runs the weighted pipeline for a single kernel:
// profile both devices (rates in weight units per second) and solve
// for the minimax split point, pricing weight with k.Flops and the
// accelerator's bytes with its accesses, both over ranges. The
// decision is Hybrid: the accelerator takes [0, NG), the host
// [NG, N), and Beta is the accelerator's share of the weight.
func AnalyzeImbalanced(plat *device.Platform, dir *mem.Directory, k *task.Kernel, accelID int, cfg Config) (Decision, error) {
	if k.Flops == nil {
		return Decision{}, fmt.Errorf("glinda: kernel %q has no cost function", k.Name)
	}
	est, err := Profile(plat, dir, k, accelID, cfg)
	if err != nil {
		return Decision{}, err
	}
	n := k.Size
	s := probeSize(n)
	// Convert element rates to weight rates using the sampled range's
	// weight density (the probes ran over [0, s)).
	sampleWeight := k.Flops(0, s)
	if sampleWeight <= 0 {
		return Decision{}, fmt.Errorf("glinda: kernel %q has zero weight over the sample", k.Name)
	}
	rcw := est.Rc * sampleWeight / float64(s)
	rgw := est.Rg * sampleWeight / float64(s)

	b := est.B
	if math.IsInf(b, 1) {
		b = 0
	}
	bytes := func(s int64) float64 { return prefixBytes(k, s) }
	split, err := SolveImbalanced(n, k.Flops, bytes, rgw, rcw, b)
	if err != nil {
		return Decision{}, err
	}
	split = plat.Device(accelID).RoundUpWarp(split, n)
	d := Decision{Config: Hybrid, NG: split, NC: n - split}
	if total := k.Flops(0, n); total > 0 {
		d.Beta = k.Flops(0, split) / total
	}
	return d, nil
}
