package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the stdout goldens in testdata/")

// runMainEnv, when set in the environment, makes the test binary run
// the command's main with its arguments instead of the tests.
const runMainEnv = "MATCHMAKER_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutGolden runs the command once per case, in a child process
// of the test binary, and compares its stdout and exit code with the
// golden under testdata/. The wall-clock metric series are the only
// lines left out. Regenerate with:
//
//	go test ./cmd/matchmaker -run TestStdoutGolden -update
func TestStdoutGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"validate_stream_seq_forced", []string{"-app", "STREAM-Seq", "-sync", "forced", "-validate"}, 0},
		{"validate_nbody_dual_gpu_bus", []string{"-app", "Nbody", "-platform", "dual-gpu-bus", "-validate"}, 0},
		{"explain_hotspot", []string{"-app", "HotSpot", "-explain", "-dry"}, 0},
		{"explain_cholesky_512", []string{"-app", "Cholesky", "-n", "512", "-explain", "-dry"}, 0},
		{"structure", []string{"-structure", "loop[10]{copy; scale} !sync"}, 0},
		{"list", []string{"-list"}, 0},
		{"metrics_blackscholes", []string{"-app", "BlackScholes", "-metrics"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != c.code {
				t.Fatalf("matchmaker %s exited %d, want %d; stderr:\n%s",
					strings.Join(c.args, " "), code, c.code, stderr.String())
			}
			got := withoutWallClock(out)
			golden := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("matchmaker %s stdout differs from %s:\ngot:\n%s\nwant:\n%s",
					strings.Join(c.args, " "), golden, got, want)
			}
		})
	}
}

// withoutWallClock drops the value lines of the two metric series that
// measure host time rather than simulated time.
func withoutWallClock(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.HasPrefix(line, "sim_wall_ns ") || strings.HasPrefix(line, "sim_virtual_wall_ratio ") {
			continue
		}
		b.WriteString(line)
	}
	return b.Bytes()
}
