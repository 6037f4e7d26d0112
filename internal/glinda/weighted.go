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
// element-equal.

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

// WeightPrefix builds the weight prefix sums P[0..n] of a kernel's
// iteration space, using the declared flops as the weight measure
// (bandwidth-bound kernels may use bytes; flops is the ICS'14 choice).
// P[i] is the total weight of [0, i).
func WeightPrefix(k *task.Kernel) []float64 {
	n := k.Size
	p := make([]float64, n+1)
	for i := int64(0); i < n; i++ {
		p[i+1] = p[i] + k.Flops(i, i+1)
	}
	return p
}

// prefixBytes is the transfer bytes of the accelerator's share
// [0, s): reads in plus writes out. The share runs as one instance over
// the range, so this is exactly what the runtime moves for it, and one
// access call prices the whole range.
func prefixBytes(k *task.Kernel, s int64) float64 {
	in, out := accessBytes(k, s)
	return float64(in + out)
}

// DecisionImbalanced is the weighted analogue of Decision.
type DecisionImbalanced struct {
	// Split is the partition point: the accelerator takes [0, Split),
	// the host [Split, N).
	Split int64
	// GPUWeightShare is the fraction of total weight on the
	// accelerator.
	GPUWeightShare float64
	// Prefix holds the weight prefix sums for downstream chunking.
	Prefix []float64
	N      int64
}

// CutWeighted divides [lo, hi) into at most m spans of roughly equal
// weight using the prefix sums — the host-side chunking that keeps all
// m worker threads equally busy on an imbalanced range.
func (d *DecisionImbalanced) CutWeighted(lo, hi int64, m int) []mem.Interval {
	if hi <= lo || m < 1 {
		return nil
	}
	total := d.Prefix[hi] - d.Prefix[lo]
	if total <= 0 {
		// Weightless range: fall back to equal elements.
		return mem.Interval{Lo: lo, Hi: hi}.AppendSplit(nil, m)
	}
	var out []mem.Interval
	at := lo
	for i := 1; i <= m && at < hi; i++ {
		target := d.Prefix[lo] + total*float64(i)/float64(m)
		end := at + 1
		for end < hi && d.Prefix[end] < target {
			end++
		}
		if i == m {
			end = hi
		}
		out = append(out, mem.Interval{Lo: at, Hi: end})
		at = end
	}
	return out
}

// AnalyzeImbalanced runs the weighted pipeline for a single kernel:
// profile both devices (rates in weight units per second), build the
// weight prefix, and solve for the minimax split point.
func AnalyzeImbalanced(plat *device.Platform, dir *mem.Directory, k *task.Kernel, accelID int, cfg Config) (DecisionImbalanced, error) {
	if k.Flops == nil {
		return DecisionImbalanced{}, fmt.Errorf("glinda: kernel %q has no cost function", k.Name)
	}
	est, err := Profile(plat, dir, k, accelID, cfg)
	if err != nil {
		return DecisionImbalanced{}, err
	}
	n := k.Size
	s := cfg.Defaults().probeSize(n)
	// Convert element rates to weight rates using the sampled range's
	// weight density (the probes ran over [0, s)).
	sampleWeight := k.Flops(0, s)
	if sampleWeight <= 0 {
		return DecisionImbalanced{}, fmt.Errorf("glinda: kernel %q has zero weight over the sample", k.Name)
	}
	rcw := est.Rc * sampleWeight / float64(s)
	rgw := est.Rg * sampleWeight / float64(s)

	prefix := WeightPrefix(k)
	b := est.B
	if math.IsInf(b, 1) {
		b = 0
	}
	bytes := func(s int64) float64 { return prefixBytes(k, s) }
	split, err := SolveImbalancedPrefix(prefix, bytes, rgw, rcw, b)
	if err != nil {
		return DecisionImbalanced{}, err
	}
	split = plat.Device(accelID).RoundUpWarp(split, n)
	d := DecisionImbalanced{Split: split, Prefix: prefix, N: n}
	if prefix[n] > 0 {
		d.GPUWeightShare = prefix[split] / prefix[n]
	}
	return d, nil
}
