package runner

import (
	"fmt"

	"heteropart/internal/sim"
)

// DefaultChunkCandidates are the task counts the auto-tuner sweeps:
// multiples of the paper platform's worker-thread counts.
var DefaultChunkCandidates = []int{6, 12, 24, 48, 96}

// TunePoint is one auto-tuning measurement.
type TunePoint struct {
	Chunks   int
	Makespan sim.Duration
}

// AutoTuneChunks implements the Discussion-section recommendation
// ("the task size impacts performance as well ... auto-tuning is
// recommended to find the best performing one"): it runs base once
// per candidate task count (DefaultChunkCandidates when nil), sharded
// over the worker pool, and returns the count with the smallest
// makespan together with the whole sweep in candidate order. Ties
// break toward the earliest candidate.
func (r *Runner) AutoTuneChunks(base Spec, candidates []int) (int, []TunePoint, error) {
	if len(candidates) == 0 {
		candidates = DefaultChunkCandidates
	}
	specs := make([]Spec, len(candidates))
	for i, m := range candidates {
		if m <= 0 {
			return 0, nil, fmt.Errorf("runner: invalid chunk candidate %d", m)
		}
		s := base
		s.Chunks = m
		specs[i] = s
	}
	results, err := r.RunAll(specs)
	if err != nil {
		return 0, nil, fmt.Errorf("runner: auto-tune: %w", err)
	}
	best, bestT := -1, sim.MaxTime
	sweep := make([]TunePoint, len(results))
	for i, res := range results {
		t := res.Outcome.Result.Makespan
		sweep[i] = TunePoint{Chunks: candidates[i], Makespan: t}
		if t < bestT {
			best, bestT = candidates[i], t
		}
	}
	return best, sweep, nil
}
