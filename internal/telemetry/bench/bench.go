// Package bench is the benchmark regression reporter: it runs a
// curated suite of tier-1 performance benchmarks in-process (via
// testing.Benchmark), writes the measurements as a dated, versioned
// JSON report (`BENCH_<date>.json`), and compares a new report against
// a prior baseline with a configurable regression threshold.
//
// The suite mirrors the repo's own tier-1 benchmarks — the size sweep
// with and without the plan cache, the worker-pool speedup, the
// disabled-span and metrics hot paths — so the report tracks exactly
// the performance claims the codebase makes. Derived series (cache
// speedup, pool speedup) are computed from the measured ones and
// stored alongside them.
//
// Wall-clock benchmark numbers are host-dependent: reports embed a
// host fingerprint, and Compare adds a note when the hosts differ. The
// note does not soften the comparison: series beyond the threshold are
// still returned as regressions, so a cross-host run can fail on
// hardware differences alone.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// ReportVersion is the BENCH_*.json format version.
const ReportVersion = 1

// Host fingerprints the machine a report was measured on.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
}

// CurrentHost fingerprints this process's machine.
func CurrentHost() Host {
	return Host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
	}
}

// Series is one measured benchmark.
type Series struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Iters is how many iterations the harness settled on.
	Iters int `json:"iters"`
}

// Derived is a quantity computed from measured series rather than
// timed directly (speedup ratios, overhead deltas).
type Derived struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// Report is one dated benchmark measurement set.
type Report struct {
	Version int       `json:"version"`
	Date    string    `json:"date"` // YYYY-MM-DD
	Host    Host      `json:"host"`
	Series  []Series  `json:"series"`
	Derived []Derived `json:"derived,omitempty"`
}

// Bench is one runnable suite entry.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// Measure runs every suite entry through testing.Benchmark and builds
// a report (Date left for the caller to stamp). Series come out in
// name order; derived series are computed from the measured ones when
// their inputs are present.
func Measure(suite []Bench) *Report {
	r := &Report{Version: ReportVersion, Host: CurrentHost()}
	byName := map[string]Series{}
	for _, bm := range suite {
		res := testing.Benchmark(bm.F)
		s := Series{
			Name:        bm.Name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iters:       res.N,
		}
		r.Series = append(r.Series, s)
		byName[s.Name] = s
	}
	sort.Slice(r.Series, func(i, j int) bool { return r.Series[i].Name < r.Series[j].Name })

	ratio := func(name, num, den, note string) {
		n, okN := byName[num]
		d, okD := byName[den]
		if !okN || !okD || d.NsPerOp == 0 {
			return
		}
		r.Derived = append(r.Derived, Derived{Name: name, Value: n.NsPerOp / d.NsPerOp, Note: note})
	}
	ratio("plan_cache_speedup", "SizeSweepNoCache", "SizeSweepPlanCache",
		"cold sweep time without / with the plan cache")
	ratio("runner_speedup_4w", "SweepWorkers1", "SizeSweepPlanCache",
		"sweep time with 1 worker / with 4 workers")
	return r
}

// Encode renders the report as stable indented JSON with a trailing
// newline.
func (r *Report) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encode report: %w", err)
	}
	return append(out, '\n'), nil
}

// WriteFile encodes the report into path.
func (r *Report) WriteFile(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Parse decodes a report, rejecting unknown versions.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: decode report: %w", err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("bench: report version %d, this build reads %d", r.Version, ReportVersion)
	}
	return &r, nil
}

// ParseFile reads and decodes a report file.
func ParseFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// LatestBaseline finds the newest BENCH_*.json in dir whose base name
// differs from exclude (typically the report being written). Returns
// ("", nil, nil) when no baseline exists — a first run is not an
// error. BENCH names embed ISO dates, so lexical order is date order.
func LatestBaseline(dir, exclude string) (string, *Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", nil, err
	}
	sort.Strings(paths)
	for i := len(paths) - 1; i >= 0; i-- {
		if filepath.Base(paths[i]) == exclude {
			continue
		}
		r, err := ParseFile(paths[i])
		if err != nil {
			return "", nil, err
		}
		return paths[i], r, nil
	}
	return "", nil, nil
}

// Regression is one series that slowed beyond the threshold.
type Regression struct {
	Name   string  `json:"name"`
	BaseNs float64 `json:"base_ns_per_op"`
	CurNs  float64 `json:"cur_ns_per_op"`
	// Ratio is CurNs/BaseNs (1.25 = 25% slower).
	Ratio float64 `json:"ratio"`
}

// Compare checks cur against base: a series regresses when its ns/op
// exceeds the baseline's by more than threshold (0.20 = 20%). Series
// present in only one report are reported as notes, not regressions.
// A host-fingerprint mismatch also adds a note saying the ratios are
// unreliable, but it changes nothing else: every series beyond the
// threshold is still returned as a regression.
func Compare(base, cur *Report, threshold float64) (regs []Regression, notes []string) {
	if base.Host != cur.Host {
		notes = append(notes, fmt.Sprintf(
			"host mismatch: baseline %s/%s %s %d-cpu vs current %s/%s %s %d-cpu — ratios are advisory",
			base.Host.GOOS, base.Host.GOARCH, base.Host.GoVersion, base.Host.NumCPU,
			cur.Host.GOOS, cur.Host.GOARCH, cur.Host.GoVersion, cur.Host.NumCPU))
	}
	baseBy := map[string]Series{}
	for _, s := range base.Series {
		baseBy[s.Name] = s
	}
	seen := map[string]bool{}
	for _, s := range cur.Series {
		seen[s.Name] = true
		b, ok := baseBy[s.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("series %s: new, no baseline", s.Name))
			continue
		}
		if b.NsPerOp <= 0 {
			notes = append(notes, fmt.Sprintf("series %s: baseline is zero, skipped", s.Name))
			continue
		}
		ratio := s.NsPerOp / b.NsPerOp
		if ratio > 1+threshold {
			regs = append(regs, Regression{Name: s.Name, BaseNs: b.NsPerOp, CurNs: s.NsPerOp, Ratio: ratio})
		}
	}
	for _, s := range base.Series {
		if !seen[s.Name] {
			notes = append(notes, fmt.Sprintf("series %s: dropped from suite", s.Name))
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	sort.Strings(notes)
	return regs, notes
}
