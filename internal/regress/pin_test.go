// Package regress pins the paper-platform behavior of the whole
// decide/execute stack byte-for-byte. The golden file paper_pin.golden
// was generated from the pre-platform-refactor tree; any refactor of
// the device / cost-model / topology substrate must keep the default
// (paper) platform's tables, plans and flight bundles identical.
// Regenerate deliberately with:
//
//	go test ./internal/regress -run TestPaperPlatformPinned -update
//
// regret.golden pins decision quality on every catalog platform: the
// analyzer's pick, the measured best and the pick's regret
// (TestRegretMatrix).
package regress

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/plan"
	"heteropart/internal/runner"
	"heteropart/internal/strategy"
	"heteropart/internal/telemetry/flight"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// pinSizes keeps each run small enough that the full matrix stays
// fast while still exercising every decision path.
var pinSizes = map[string]struct {
	n     int64
	iters int
}{
	"MatrixMul":    {48, 1},
	"BlackScholes": {5000, 1},
	"Nbody":        {256, 2},
	"HotSpot":      {32, 2},
	"STREAM-Seq":   {4096, 1},
	"STREAM-Loop":  {2048, 2},
	"Cholesky":     {64, 1},
	"Convolution":  {32, 1},
	"Triangular":   {512, 1},
}

var pinApps = []string{"MatrixMul", "BlackScholes", "Nbody", "HotSpot",
	"STREAM-Seq", "STREAM-Loop", "Cholesky", "Convolution", "Triangular"}

// TestPaperPlatformPinned runs the full applicable (app × strategy ×
// sync) matrix on the default paper platform and asserts the rendered
// result tables, decided plans, and flight bundles are byte-identical
// to the committed golden. This is the legacy-path regression oracle
// for the pluggable-platform refactor.
func TestPaperPlatformPinned(t *testing.T) {
	plat := device.PaperPlatform(0)
	var specs []runner.Spec
	for _, appName := range pinApps {
		cfg := pinSizes[appName]
		app, err := apps.ByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		for _, sync := range []apps.SyncMode{apps.SyncNone, apps.SyncForced} {
			probe, err := app.Build(apps.Variant{N: cfg.n, Iters: cfg.iters, Sync: sync})
			if err != nil {
				t.Fatal(err)
			}
			cls, needsSync := probe.Class(), probe.NeedsSync()
			for _, s := range strategy.All() {
				if !s.Applicable(cls, needsSync) {
					continue
				}
				if probe.AtomicPhases && s.Name() == "DP-Converted" {
					continue
				}
				specs = append(specs, runner.Spec{
					App: appName, Strategy: s.Name(), Sync: sync,
					N: cfg.n, Iters: cfg.iters, CollectTrace: true,
				})
			}
		}
	}
	if len(specs) < 30 {
		t.Fatalf("pin matrix too small: %d pairs", len(specs))
	}

	r := runner.New(runner.Config{Workers: 1})
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "platform %s\n", plan.Fingerprint(plat))
	for i, spec := range specs {
		res := results[i]
		out := res.Outcome
		fmt.Fprintf(&buf, "\n== %s / %s / sync=%d ==\n", spec.App, spec.Strategy, int(spec.Sync))
		fmt.Fprintf(&buf, "table|makespan=%d|elems=%s|instances=%d|htod=%d|dtoh=%d|transfers=%d|decisions=%d|gpu=%.6f\n",
			int64(out.Result.Makespan), renderElems(out.Result.ElemsByDevice),
			out.Result.Instances, out.Result.HtoDBytes, out.Result.DtoHBytes,
			out.Result.TransferCount, out.Result.Decisions, out.GPURatio())
		planJSON, err := res.Plan.JSON()
		if err != nil {
			t.Fatalf("%s: encode plan: %v", spec, err)
		}
		fmt.Fprintf(&buf, "plan:\n%s", planJSON)
		bundle, err := flight.Record(spec.App, out.Strategy, spec.Canonical(),
			plan.Fingerprint(plat), int64(out.Result.Makespan), res.Plan, nil, nil,
			out.Trace.Utilization(out.Result.Makespan))
		if err != nil {
			t.Fatalf("%s: record bundle: %v", spec, err)
		}
		enc, err := bundle.Encode()
		if err != nil {
			t.Fatalf("%s: encode bundle: %v", spec, err)
		}
		fmt.Fprintf(&buf, "bundle:\n%s", enc)
	}

	golden := filepath.Join("testdata", "paper_pin.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, %d runs)", golden, buf.Len(), len(specs))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		line := firstDiffLine(want, buf.Bytes())
		t.Fatalf("paper-platform output drifted from the pinned golden (first differing line %d).\n"+
			"The paper platform is the regression oracle: a platform-layer change must not\n"+
			"alter its tables, plans, or bundles. If the change is intentional, regenerate\n"+
			"with -update and justify the diff in the PR.", line)
	}
}

func renderElems(m map[int]int64) string {
	devs := make([]int, 0, len(m))
	for d := range m {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	var b bytes.Buffer
	for i, d := range devs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", d, m[d])
	}
	return b.String()
}

func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return n + 1
}
