package glinda

import "fmt"

// SolveImbalanced handles workloads whose per-element cost varies (the
// Glinda ICS'14 extension, reference [9]: "matching imbalanced
// workloads"): it finds the split point s such that the GPU takes
// [0, s) and the CPU takes [s, n), minimizing max(T_gpu, T_cpu) with
//
//	T_gpu(s) = weight(0, s)/rgw + bytes(s)/B      (weights/s + bytes/s)
//	T_cpu(s) = weight(s, n)/rcw
//
// weight prices a range of the iteration space (a kernel's Flops) and
// bytes(s) is what the accelerator moves for its share [0, s); rgw and
// rcw are throughputs in weight units per second. A bandwidth B <= 0
// drops the transfer term, and bytes is then never called (it may be
// nil).
//
// Both sides must be monotone in s (GPU nondecreasing, CPU
// nonincreasing), so the minimax sits where they cross; binary search
// finds it with O(log n) calls of weight and bytes.
func SolveImbalanced(n int64, weight func(lo, hi int64) float64, bytes func(s int64) float64, rgw, rcw, bandwidth float64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("glinda: negative problem size %d", n)
	}
	if rgw <= 0 && rcw <= 0 {
		return 0, fmt.Errorf("glinda: no capable devices")
	}
	if rgw <= 0 {
		return 0, nil
	}
	if rcw <= 0 {
		return n, nil
	}
	cost := func(s int64) (tg, tc float64) {
		tg = weight(0, s) / rgw
		if bandwidth > 0 {
			tg += bytes(s) / bandwidth
		}
		return tg, weight(s, n) / rcw
	}

	// Find the smallest s with T_gpu(s) >= T_cpu(s), then check its
	// left neighbour.
	lo, hi := int64(0), n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if tg, tc := cost(mid); tg >= tc {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && max(cost(lo-1)) < max(cost(lo)) {
		return lo - 1, nil
	}
	return lo, nil
}
