package glinda

import "fmt"

// SolveImbalanced handles workloads whose per-element cost varies (the
// Glinda ICS'14 extension, reference [9]: "matching imbalanced
// workloads"): given the prefix sums of the per-element weights, it
// finds the split point s such that the GPU takes [0, s) and the CPU
// takes [s, n), minimizing max(T_gpu, T_cpu) with
//
//	T_gpu(s) = P[s]/rgw + (slope·s + c0)/B      (weights/s + bytes/s)
//	T_cpu(s) = (P[n] - P[s])/rcw
//
// rgw and rcw are throughputs in weight units per second. A bandwidth
// B <= 0 drops the transfer term, as does slope = c0 = 0: pass either
// when the kernel moves no data.
//
// Both sides are monotone in s (GPU nondecreasing, CPU nonincreasing),
// so the minimax sits where they cross; binary search finds it in
// O(log n).
func SolveImbalanced(prefix []float64, rgw, rcw, slope, c0, bandwidth float64) (int64, error) {
	if len(prefix) < 1 {
		return 0, fmt.Errorf("glinda: prefix sums empty")
	}
	n := int64(len(prefix) - 1)
	if rgw <= 0 && rcw <= 0 {
		return 0, fmt.Errorf("glinda: no capable devices")
	}
	if rgw <= 0 {
		return 0, nil
	}
	if rcw <= 0 {
		return n, nil
	}
	for i := 1; i < len(prefix); i++ {
		if prefix[i] < prefix[i-1] {
			return 0, fmt.Errorf("glinda: prefix sums must be nondecreasing (index %d)", i)
		}
	}
	tg := func(s int64) float64 {
		t := prefix[s] / rgw
		if bandwidth > 0 && s > 0 {
			t += (slope*float64(s) + c0) / bandwidth
		}
		return t
	}
	tc := func(s int64) float64 { return (prefix[n] - prefix[s]) / rcw }
	return solveMinimax(n, tg, tc), nil
}

// SolveImbalancedPrefix is the fully nonlinear variant: the compute
// weight of a prefix comes from prefix sums and its transfer bytes
// from bytes(s), the bytes the accelerator moves for [0, s), so
// iteration spaces whose *footprint* is also uneven (e.g. packed
// triangular data) are priced correctly. bytes must be nondecreasing
// in s; it is called only when bandwidth > 0, and only at the
// O(log n) points the search visits.
func SolveImbalancedPrefix(weight []float64, bytes func(s int64) float64, rgw, rcw, bandwidth float64) (int64, error) {
	if len(weight) < 1 {
		return 0, fmt.Errorf("glinda: prefix sums empty")
	}
	n := int64(len(weight) - 1)
	if rgw <= 0 && rcw <= 0 {
		return 0, fmt.Errorf("glinda: no capable devices")
	}
	if rgw <= 0 {
		return 0, nil
	}
	if rcw <= 0 {
		return n, nil
	}
	for i := 1; i < len(weight); i++ {
		if weight[i] < weight[i-1] {
			return 0, fmt.Errorf("glinda: prefix sums must be nondecreasing (index %d)", i)
		}
	}
	tg := func(s int64) float64 {
		t := weight[s] / rgw
		if bandwidth > 0 {
			t += bytes(s) / bandwidth
		}
		return t
	}
	tc := func(s int64) float64 { return (weight[n] - weight[s]) / rcw }
	return solveMinimax(n, tg, tc), nil
}

// solveMinimax finds the s in [0, n] minimizing max(tg(s), tc(s)),
// with tg nondecreasing and tc nonincreasing, by binary search for the
// crossing followed by a neighbour check.
func solveMinimax(n int64, tg, tc func(int64) float64) int64 {

	// Find the smallest s with T_gpu(s) >= T_cpu(s).
	lo, hi := int64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		if tg(mid) >= tc(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	best := lo
	if lo > 0 && maxf(tg(lo-1), tc(lo-1)) < maxf(tg(lo), tc(lo)) {
		best = lo - 1
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
