package calib

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"heteropart/internal/device"
)

var update = flag.Bool("update", false, "rewrite the Converge golden files")

// TestConvergeMakeCalibrateGolden pins the loop `make calibrate` drives:
// BlackScholes on tri-asym-p2p (m = 12), the truth platform carrying
// the report that target's first step fits (testdata/
// make_calibrate_fit.json), the believed platform its base model, the
// analyzer picking the strategy, three rounds at most. The report and
// the final plan must match the goldens byte for byte. Regenerate
// deliberately with:
//
//	go test ./internal/calib -run TestConvergeMakeCalibrateGolden -update
func TestConvergeMakeCalibrateGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "make_calibrate_fit.json"))
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := device.ByName("tri-asym-p2p", 12)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := fitted.Apply(plat)
	if err != nil {
		t.Fatal(err)
	}
	report, final, _, err := Converge(Config{App: "BlackScholes", MaxRounds: 3}, truth, truth.Uncalibrated())
	if err != nil {
		t.Fatal(err)
	}
	rj, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := final.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"make_calibrate_converged.golden", rj},
		{"make_calibrate_plan.golden", pj},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to generate): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from the golden:\n got: %s\nwant: %s", g.file, g.got, want)
		}
	}
}
