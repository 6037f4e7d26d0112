// Package analyzer is the paper's application analyzer (Section III):
// given a parallelized application, it determines the application
// class from the kernel structure, ranks the suitable partitioning
// strategies for that class (Table I), and selects the best one — the
// matchmaking of applications and partitioning strategies. It also
// checks measured makespans against the ranking (CheckRanking). It
// runs nothing itself: the runner measures the strategies it ranks.
package analyzer

import (
	"fmt"
	"slices"
	"sort"

	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/sim"
)

// Ranking returns Table I: the suitable strategies for a class, best
// first. For the multi-kernel sequence classes the order depends on
// whether the application uses or needs inter-kernel synchronization.
func Ranking(cls classify.Class, needsSync bool) []string {
	switch cls {
	case classify.SKOne, classify.SKLoop:
		return []string{"SP-Single", "DP-Perf", "DP-Dep"}
	case classify.MKSeq, classify.MKLoop:
		if needsSync {
			return []string{"SP-Varied", "DP-Perf", "DP-Dep", "SP-Unified"}
		}
		return []string{"SP-Unified", "DP-Perf", "DP-Dep", "SP-Varied"}
	case classify.MKDAG:
		return []string{"DP-Perf", "DP-Dep"}
	default:
		return nil
	}
}

// Report is the analyzer's decision for one application.
type Report struct {
	App       string
	Class     classify.Class
	NeedsSync bool
	// Ranked is Table I's ordering for this class, less the
	// ratio-splitting static strategies (SP-Unified, SP-Varied) when
	// the problem's phases are atomic.
	Ranked []string
	// Best is the selected strategy (head of Ranked).
	Best string
}

// String renders the report the way the paper's Fig. 2 pipeline would
// announce it.
func (r Report) String() string {
	sync := "no inter-kernel sync"
	if r.NeedsSync {
		sync = "inter-kernel sync"
	}
	return fmt.Sprintf("%s: class %s (%s), %s -> use %s",
		r.App, r.Class, r.Class.Roman(), sync, r.Best)
}

// Analyze classifies a problem and selects the best-ranked strategy.
// The sync requirement combines what the application declares with
// what access-pattern analysis derives (Section III-C's two SP-Varied
// conditions).
func Analyze(p *apps.Problem) (Report, error) {
	cls, err := classify.Classify(p.Structure)
	if err != nil {
		return Report{}, err
	}
	needsSync := p.NeedsSync() || p.Structure.InterKernelSync
	if !needsSync && cls.MultiKernel() && cls != classify.MKDAG {
		needsSync = classify.DetectSync(p.Unique, p.Unique[0].Size)
	}
	ranked := Ranking(cls, needsSync)
	if p.AtomicPhases {
		// SP-Unified and SP-Varied split every phase by a ratio, which
		// indivisible phases refuse; rank only strategies that can run.
		ranked = slices.DeleteFunc(ranked, func(name string) bool {
			return name == "SP-Unified" || name == "SP-Varied"
		})
	}
	if len(ranked) == 0 {
		return Report{}, fmt.Errorf("analyzer: no strategy for class %v", cls)
	}
	return Report{
		App:       p.AppName,
		Class:     cls,
		NeedsSync: needsSync,
		Ranked:    ranked,
		Best:      ranked[0],
	}, nil
}

// Validation is the outcome of empirically checking Table I's ranking
// for one application (the Section IV experiment).
type Validation struct {
	Report
	// Times maps each suitable strategy to its measured makespan.
	Times map[string]sim.Duration
	// Empirical is the measured ordering, fastest first.
	Empirical []string
	// Matches reports whether the theoretical ranking holds within
	// tolerance (the paper's "outperforms or equals").
	Matches bool
}

// rankTolerance absorbs measurement ties (the paper's "≥" — e.g.
// DP-Perf and DP-Dep showing "no visible performance difference" on
// STREAM).
const rankTolerance = 0.05

// CheckRanking orders the measured makespans of the report's ranked
// strategies and checks the order against Table I: each strategy must
// be at most rankTolerance slower than the one ranked after it.
func CheckRanking(rep Report, times map[string]sim.Duration) *Validation {
	val := &Validation{Report: rep, Times: times}
	val.Empirical = append([]string(nil), rep.Ranked...)
	sort.SliceStable(val.Empirical, func(i, j int) bool {
		return val.Times[val.Empirical[i]] < val.Times[val.Empirical[j]]
	})

	val.Matches = true
	for i := 0; i+1 < len(rep.Ranked); i++ {
		a := float64(val.Times[rep.Ranked[i]])
		b := float64(val.Times[rep.Ranked[i+1]])
		if a > b*(1+rankTolerance) {
			val.Matches = false
			break
		}
	}
	return val
}
