// Command benchreport is the benchmark regression gate: it runs the
// tier-1 performance suite in-process (size sweep with/without the
// plan cache, worker-pool speedup, span and metrics hot paths), writes
// the measurements as BENCH_<date>.json, and compares them against the
// latest prior report (or an explicit baseline), exiting non-zero when
// any series slowed beyond the threshold.
//
// Usage:
//
//	benchreport                       # full suite, compare vs latest BENCH_*.json
//	benchreport -smoke                # seconds-scale pass (small sizes, one iteration)
//	benchreport -out bench-out/       # where reports live
//	benchreport -baseline BENCH_2026-08-01.json -threshold 0.10
//
// The report embeds a host fingerprint, and a comparison across
// different machines prints a host-mismatch note. The note is only a
// warning: regressions beyond the threshold still fail the run, on any
// host.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heteropart/internal/telemetry/bench"
)

func main() {
	var (
		outDir    = flag.String("out", ".", "directory to write (and discover) BENCH_*.json reports in")
		baseline  = flag.String("baseline", "", "explicit baseline report to compare against (default: latest prior BENCH_*.json in -out)")
		threshold = flag.Float64("threshold", 0.20, "regression threshold on ns/op (0.20 = fail when >20% slower)")
		smoke     = flag.Bool("smoke", false, "smoke mode: small sweep sizes and short benchmark settling (CI gate; full reports use tier-1 sizes)")
		date      = flag.String("date", "", "report date stamp, YYYY-MM-DD (default: today, UTC)")
	)
	// testing.Init registers the test.* flags benchmark execution reads;
	// it must run before flag.Parse.
	testing.Init()
	flag.Parse()
	if *smoke {
		// 100ms of settling per benchmark instead of Go's 1s default:
		// fast enough for a pre-merge gate, but still several iterations
		// of every series, so the numbers aren't single-run noise.
		fatal(flag.Set("test.benchtime", "100ms"))
	}
	when := *date
	if when == "" {
		when = time.Now().UTC().Format("2006-01-02")
	}

	fmt.Fprintf(os.Stderr, "benchreport: running %d benchmarks (smoke=%v)\n", len(bench.Suite(*smoke)), *smoke)
	report := bench.Measure(bench.Suite(*smoke))
	report.Date = when
	for _, s := range report.Series {
		fmt.Printf("%-24s %14.0f ns/op %10d B/op %8d allocs/op\n",
			s.Name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp)
	}
	for _, d := range report.Derived {
		fmt.Printf("%-24s %14.2fx  (%s)\n", d.Name, d.Value, d.Note)
	}

	fatal(os.MkdirAll(*outDir, 0o755))
	name := "BENCH_" + when + ".json"
	path := filepath.Join(*outDir, name)
	fatal(report.WriteFile(path))
	fmt.Printf("report written to %s\n", path)

	basePath, base := resolveBaseline(*baseline, *outDir, name)
	if base == nil {
		fmt.Println("no baseline report found; nothing to compare against")
		return
	}
	regs, notes := bench.Compare(base, report, *threshold)
	fmt.Printf("compared against %s (threshold %.0f%%)\n", basePath, *threshold*100)
	for _, n := range notes {
		fmt.Println("  note:", n)
	}
	if len(regs) == 0 {
		fmt.Println("no regressions")
		return
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  REGRESSION %s: %.0f -> %.0f ns/op (%.2fx)\n",
			r.Name, r.BaseNs, r.CurNs, r.Ratio)
	}
	fmt.Fprintf(os.Stderr, "benchreport: %d series regressed beyond %.0f%%\n", len(regs), *threshold*100)
	os.Exit(1)
}

// resolveBaseline picks the comparison report: the explicit -baseline
// when given, otherwise the newest prior BENCH_*.json in dir.
func resolveBaseline(explicit, dir, exclude string) (string, *bench.Report) {
	if explicit != "" {
		r, err := bench.ParseFile(explicit)
		fatal(err)
		return explicit, r
	}
	path, r, err := bench.LatestBaseline(dir, exclude)
	fatal(err)
	return path, r
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
