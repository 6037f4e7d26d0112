# heteropart — reproduction of Shen et al., ICPP 2015.

GO ?= go

.PHONY: all build test bench bench-smoke bench-report bench-golden vet fmt lint race race-observe check experiments report examples clean api service-load fuzz chaos platforms calibrate replay loc

# Pinned staticcheck version; CI installs exactly this.
STATICCHECK_VERSION = 2024.1.1

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean; lists the offenders and fails.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. staticcheck is not vendored; when the
# binary is absent the target skips with a notice instead of failing
# (CI installs the pinned version and enforces it).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Race-check the whole module. The sweep runner shards simulations
# across goroutines, so every package must stay race-clean, not just
# the observability layer. The coalescing group is the state the
# runner's caches and the service's flights share across goroutines,
# so its tests run repeatedly under the detector.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/coalesce

# Narrower race pass kept for quick iteration on the metrics/trace
# layer.
race-observe:
	$(GO) test -race ./internal/metrics/... ./internal/trace/...

# Regenerate the committed API-surface golden (api.txt). Run after any
# intentional change to the facade's exported surface; TestAPISurface
# fails until the golden matches.
api:
	$(GO) run ./cmd/apidump > api.txt

# The service load test at its acceptance scale (64 concurrent
# matchmake clients, zero failures, coalescing hits required).
service-load:
	$(GO) test -short -run TestServiceLoad -count=1 ./internal/service

# Short coverage-guided fuzz sessions over the decode boundaries
# (native Go fuzzing; crashers land in testdata/fuzz/ as regression
# corpus entries — commit them).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzPlanFromJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/plan
	$(GO) test -fuzz FuzzServiceRequest -fuzztime $(FUZZTIME) -run '^$$' ./internal/service
	$(GO) test -fuzz FuzzBundleParse -fuzztime $(FUZZTIME) -run '^$$' ./internal/telemetry/flight
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$' ./internal/classify
	$(GO) test -fuzz FuzzSpecFromJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/device
	$(GO) test -fuzz FuzzCalibrationFromJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/calib
	$(GO) test -fuzz FuzzScheduleFromJSON -fuzztime $(FUZZTIME) -run '^$$' ./internal/fault

# The chaos/property harness: fault-injection determinism matrix,
# monotonic degradation, cache isolation, device-loss replan, the
# service fault surface, and the registry-suggestion properties.
chaos:
	$(GO) test -run 'TestChaos|TestService(FaultGate|ChaosCoalescedFailure|FaultedMatchmakeRecovers)|TestClosestProperties' -count=1 \
		./internal/runner ./internal/service ./internal/names

# Smoke the platform catalog end to end: every bundled PlatformSpec in
# examples/platforms/ must load through -platform-in and carry a full
# decide/execute run, and the named-catalog path (-platform) must agree.
platforms:
	@for f in examples/platforms/*.json; do \
		$(GO) run ./cmd/hetsim -app BlackScholes -strategy SP-Single -n 16384 -platform-in $$f >/dev/null || exit 1; \
		echo "platforms: $$f ok"; \
	done
	@$(GO) run ./cmd/hetsim -app Nbody -strategy DP-Perf -n 1024 -platform tri-asym-p2p >/dev/null
	@$(GO) run ./cmd/hetsim -app STREAM-Loop -strategy SP-Varied -n 4096 -platform dual-gpu-bus >/dev/null
	@echo "platforms: catalog smoke ok"

# Smoke the calibration loop end to end on the asymmetric tri-device
# platform: record a run and fit a report from its chunk spans, replay
# the run under the fitted report, then drive the full
# iterate-replan-measure loop to convergence (DESIGN.md §14).
calibrate:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/hetsim -app BlackScholes -strategy SP-Single -platform tri-asym-p2p -calibrate-out $$tmp/cal.json >/dev/null && \
	$(GO) run ./cmd/hetsim -app BlackScholes -strategy SP-Single -platform tri-asym-p2p -calibrate-in $$tmp/cal.json >/dev/null && \
	$(GO) run ./cmd/hetsim -app BlackScholes -platform tri-asym-p2p -calibrate-in $$tmp/cal.json -calibrate-rounds 3 -calibrate-out $$tmp/converged.json && \
	rm -rf $$tmp && echo "calibrate: record -> fit -> converge ok"

# Plan replay reproduces the run that decided it: each run below
# (app:strategy:n:platform[:extra flags]) decides with -plan-out, the
# saved plan replays with -plan-in (app, size and iterations from the
# plan), and the two stdouts must match except the "written to" lines
# and the wall-clock metric series.
replay:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/hetsim" ./cmd/hetsim && \
	for run in \
		BlackScholes:SP-Single:16384:paper \
		BlackScholes:SP-Single:16384:tri-asym-p2p \
		BlackScholes:SP-Single:16384:dual-gpu-bus \
		HotSpot:DP-Perf:1024:paper \
		HotSpot:DP-Perf:1024:tri-asym-p2p \
		HotSpot:DP-Perf:1024:dual-gpu-bus \
		STREAM-Loop:SP-Varied:4096:paper \
		STREAM-Loop:SP-Varied:4096:tri-asym-p2p \
		STREAM-Loop:SP-Varied:4096:dual-gpu-bus \
		Cholesky:DP-Dep:512:paper \
		Triangular:SP-Single:8192:paper \
		MatrixMul:SP-Unified:256:dual-gpu-bus \
		Nbody:DP-Perf:1024:tri-asym-p2p:-trace:-metrics \
		BlackScholes:SP-Single:16384:tri-asym-p2p:-calibrate-in:internal/calib/testdata/make_calibrate_fit.json; do \
		set -- $$(echo "$$run" | tr ':' ' '); app=$$1 strat=$$2 n=$$3 plat=$$4; shift 4; \
		"$$tmp/hetsim" -app $$app -strategy $$strat -n $$n -platform $$plat "$$@" -plan-out "$$tmp/plan.json" > "$$tmp/decided.out" && \
		"$$tmp/hetsim" -plan-in "$$tmp/plan.json" -platform $$plat "$$@" > "$$tmp/replayed.out" || exit 1; \
		for f in decided replayed; do \
			grep -v -e 'written to' -e '^sim_wall_ns ' -e '^sim_virtual_wall_ratio ' "$$tmp/$$f.out" > "$$tmp/$$f.txt"; \
		done; \
		diff -u "$$tmp/decided.txt" "$$tmp/replayed.txt" || { echo "replay: $$run differs"; exit 1; }; \
		echo "replay: $$run ok"; \
	done

# Go line counts for a change's report (ROADMAP aim 2): production
# lines (non-test .go files outside perfbench/) and test lines
# (_test.go files outside perfbench/). A report, not a gate.
loc:
	@printf 'production %s\n' "$$(find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf 'test %s\n' "$$(find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*_test.go' -print | xargs cat | wc -l)"

# Everything a change must pass before merging.
check: build vet fmt lint test race service-load chaos fuzz platforms calibrate replay examples bench-smoke bench-golden bench-report

bench:
	$(GO) test -bench=. -benchmem ./...

# Every Go benchmark for one iteration (~10 s), so the Benchmark*
# functions keep running, not just compiling.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Smoke-scale benchmark regression report: runs the tier-1 suite once,
# writes bench-out/BENCH_<date>.json and fails on >20% ns/op
# regressions against the committed baseline. A host mismatch prints a
# note but still fails on those regressions, so on hardware unlike the
# baseline's this step can fail without a code change.
bench-report:
	$(GO) run ./cmd/benchreport -smoke -out bench-out -baseline BENCH_2026-08-08.json

# The benchmark's own tests (perfbench/ is a separate module): a
# golden-checked smoke of all four workloads, so a speed rewrite that
# changes any simulated outcome fails here.
bench-golden:
	cd perfbench && $(GO) test .

# Regenerate every paper table/figure with shape checks.
experiments:
	$(GO) run ./cmd/experiments

# Refresh EXPERIMENTS.md from the current measurements.
report:
	$(GO) run ./cmd/experiments -report > EXPERIMENTS.md

# Run every example: stencil fails when the analyzer's pick does not
# measure fastest, finance when a computed price misses its reference,
# and quickstart and finance go through the facade's Matchmake.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/finance
	$(GO) run ./examples/stencil
	$(GO) run ./examples/dagflow
	$(GO) run ./examples/multiaccel

clean:
	$(GO) clean ./...
