package regress

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"heteropart/internal/analyzer"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/runner"
)

// regretThreshold is the regret above which the golden's summary line
// counts a pick as wrong: Table I's ranking tolerance.
const regretThreshold = 5.0

// TestRegretMatrix pins how far the analyzer's pick is from the best
// suitable strategy, measured, over every registered app × catalog
// platform × n ∈ {N, N/4, N/16} × sync mode. Each case validates
// through Runner.ValidateContext on one shared runner. Sync modes
// whose built problems carry the same phase synchronization flags
// share a row, and the test fails if they validate differently. A row
// holds the pick, the empirical best and the pick's regret: how much
// slower than the best it ran, in percent. Regenerate with:
//
//	go test ./internal/regress -run TestRegretMatrix -update
func TestRegretMatrix(t *testing.T) {
	r := runner.New(runner.Config{Workers: 2})
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# platform | app | n | sync modes | pick | empirical best | regret %")
	var rows, cases, badRows, badCases int
	for _, platName := range device.SpecNames() {
		plat, err := device.ByName(platName, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps.Registry() {
			for _, n := range []int64{app.DefaultN(), app.DefaultN() / 4, app.DefaultN() / 16} {
				type row struct {
					flags string
					modes []string
					val   *analyzer.Validation
				}
				var group []*row
				for _, sync := range []apps.SyncMode{apps.SyncDefault, apps.SyncForced, apps.SyncNone} {
					label := fmt.Sprintf("%s %s n=%d sync=%s", platName, app.Name(), n, syncName(sync))
					p, err := app.Build(apps.Variant{N: n, Sync: sync, Spaces: 1 + len(plat.Accels)})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					val, err := r.ValidateContext(context.Background(),
						runner.Spec{App: app.Name(), Sync: sync, N: n, Plat: plat})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					flags := syncFlags(p)
					var same *row
					for _, g := range group {
						if g.flags == flags {
							same = g
						}
					}
					if same == nil {
						group = append(group, &row{flags: flags, modes: []string{syncName(sync)}, val: val})
						continue
					}
					if !reflect.DeepEqual(same.val.Report, val.Report) || !reflect.DeepEqual(same.val.Times, val.Times) {
						t.Errorf("%s validates unlike sync=%s, whose problem has the same sync flags", label, same.modes[0])
					}
					same.modes = append(same.modes, syncName(sync))
				}
				for _, g := range group {
					regret := regretPct(g.val)
					fmt.Fprintf(&buf, "%s | %s | %d | %s | %s | %s | %.1f\n", platName, app.Name(), n,
						strings.Join(g.modes, ","), g.val.Best, g.val.Empirical[0], regret)
					rows++
					cases += len(g.modes)
					if regret > regretThreshold {
						badRows++
						badCases += len(g.modes)
					}
				}
			}
		}
	}
	fmt.Fprintf(&buf, "# %d rows (%d cases); regret above %g%%: %d rows (%d cases)\n",
		rows, cases, regretThreshold, badRows, badCases)

	golden := filepath.Join("testdata", "regret.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", golden, rows)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("regret matrix drifted from %s (first differing line %d); if a pick or a makespan "+
			"moved on purpose, regenerate with -update and list every moved row in the PR",
			golden, firstDiffLine(want, buf.Bytes()))
	}
}

// syncFlags renders which phases of p end in a taskwait: the only way
// the sync modes change a built problem.
func syncFlags(p *apps.Problem) string {
	b := make([]byte, len(p.Phases))
	for i, ph := range p.Phases {
		b[i] = '0'
		if ph.SyncAfter {
			b[i] = '1'
		}
	}
	return string(b)
}

// regretPct is how much slower the pick ran than the fastest suitable
// strategy, in percent.
func regretPct(v *analyzer.Validation) float64 {
	best := v.Times[v.Empirical[0]]
	return 100 * float64(v.Times[v.Best]-best) / float64(best)
}

func syncName(m apps.SyncMode) string {
	b, err := m.MarshalText()
	if err != nil {
		return fmt.Sprint(int(m))
	}
	return string(b)
}
