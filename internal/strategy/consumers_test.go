package strategy

import (
	"strconv"
	"strings"
	"testing"

	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/sim"
	"heteropart/internal/telemetry"
	"heteropart/internal/trace"
)

// TestRuntimeConsumersAgree runs with a trace, a metrics registry and a
// span tracer attached and checks that all of them, and the Result,
// tell the same story about every chunk, transfer, decision and
// taskwait: the runtime accounts for each occurrence once and feeds
// every consumer from that one record. The platforms cover a host-only
// link graph, a shared bus, and peer-to-peer edges.
func TestRuntimeConsumersAgree(t *testing.T) {
	for _, c := range []struct {
		app, strategy, platform string
		n                       int64
	}{
		{"Cholesky", "DP-Dep", "tri-asym-p2p", 4096},
		{"HotSpot", "DP-Perf", "paper", 0},
		{"STREAM-Loop", "SP-Varied", "dual-gpu-bus", 0},
	} {
		t.Run(c.app+"/"+c.strategy+"/"+c.platform, func(t *testing.T) {
			plat, err := device.ByName(c.platform, 0)
			if err != nil {
				t.Fatal(err)
			}
			app, err := apps.ByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			p, err := app.Build(apps.Variant{N: c.n, Spaces: 1 + len(plat.Accels)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := ByName(c.strategy)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := s.Plan(p, plat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			reg, spans := metrics.NewRegistry(), telemetry.New()
			out, err := Execute(pl, p, plat, Options{CollectTrace: true, Metrics: reg, Spans: spans})
			if err != nil {
				t.Fatal(err)
			}
			checkConsumersAgree(t, out, reg.Snapshot(sim.Time(out.Result.Makespan)), spans.Spans(), len(plat.P2P) > 0)
		})
	}
}

// tally is one consumer's count and payload (elements or bytes) for a
// device or a transfer direction.
type tally struct{ n, sum int64 }

func checkConsumersAgree(t *testing.T, out *Outcome, snap metrics.Snapshot, spans []telemetry.Span, p2p bool) {
	t.Helper()
	res := out.Result
	metric := func(name string) int64 {
		t.Helper()
		pt, ok := snap.Get(name)
		if !ok {
			t.Fatalf("series %s missing", name)
		}
		return int64(pt.Value)
	}
	attr := func(s telemetry.Span, key string) string {
		for _, a := range s.Attrs {
			if a.K == key {
				return a.V
			}
		}
		t.Fatalf("span %q has no %s attr", s.Name, key)
		return ""
	}
	atoi := func(s string) int64 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	recTasks, recXfers := map[int]tally{}, map[string]tally{}
	var recDecisions, recBarriers int64
	for _, r := range out.Trace.Records {
		switch r.Kind {
		case trace.TaskRun:
			tl := recTasks[r.Device]
			recTasks[r.Device] = tally{tl.n + 1, tl.sum + r.Elems}
		case trace.Transfer:
			dir := "dtoh"
			switch {
			case r.P2P:
				dir = "p2p"
			case r.ToDev:
				dir = "htod"
			}
			tl := recXfers[dir]
			recXfers[dir] = tally{tl.n + 1, tl.sum + r.Bytes}
		case trace.Decision:
			recDecisions++
		case trace.Barrier:
			recBarriers++
		}
	}
	spanTasks, spanXfers := map[int]tally{}, map[string]tally{}
	var spanDecisions, spanBarriers int64
	for _, s := range spans {
		switch s.Kind {
		case telemetry.KindChunk:
			dev := int(atoi(attr(s, "dev")))
			tl := spanTasks[dev]
			spanTasks[dev] = tally{tl.n + 1, tl.sum + atoi(attr(s, "elems"))}
		case telemetry.KindTransfer:
			dir, _, _ := strings.Cut(s.Name, " ")
			dir = strings.ToLower(dir)
			tl := spanXfers[dir]
			spanXfers[dir] = tally{tl.n + 1, tl.sum + atoi(attr(s, "bytes"))}
		case telemetry.KindDecide:
			spanDecisions++
		case telemetry.KindBarrier:
			spanBarriers++
		}
	}

	for dev := range out.Result.InstancesByDevice {
		id := strconv.Itoa(dev)
		want := tally{int64(res.InstancesByDevice[dev]), res.ElemsByDevice[dev]}
		mx := tally{metric(metrics.Label("rt_tasks_total", "dev", id)), metric(metrics.Label("rt_elems_total", "dev", id))}
		if recTasks[dev] != want || spanTasks[dev] != want || mx != want {
			t.Errorf("device %d tasks/elems: result %v, records %v, spans %v, metrics %v",
				dev, want, recTasks[dev], spanTasks[dev], mx)
		}
	}
	dirs := map[string]int64{"htod": res.HtoDBytes, "dtoh": res.DtoHBytes}
	if p2p {
		dirs["p2p"] = res.P2PBytes
		if res.P2PBytes == 0 {
			t.Error("peer-to-peer platform moved no P2P bytes; the run does not exercise that direction")
		}
	}
	var transfers int64
	for dir, bytes := range dirs {
		mx := tally{metric(metrics.Label("rt_transfers_total", "dir", dir)), metric(metrics.Label("rt_transfer_bytes_total", "dir", dir))}
		if recXfers[dir] != mx || spanXfers[dir] != mx || mx.sum != bytes {
			t.Errorf("%s transfers: result %d B, records %v, spans %v, metrics %v",
				dir, bytes, recXfers[dir], spanXfers[dir], mx)
		}
		transfers += mx.n
	}
	if transfers != int64(res.TransferCount) || len(recXfers) > len(dirs) || len(spanXfers) > len(dirs) {
		t.Errorf("transfer directions: result counts %d, metrics %d; records %v, spans %v",
			res.TransferCount, transfers, recXfers, spanXfers)
	}
	if recDecisions != spanDecisions || metric("rt_decisions_total") != int64(res.Decisions) || recDecisions > int64(res.Decisions) {
		t.Errorf("decisions: records %d, spans %d, result %d, metrics %d",
			recDecisions, spanDecisions, res.Decisions, metric("rt_decisions_total"))
	}
	if recBarriers != spanBarriers || recBarriers > metric("rt_taskwaits_total") {
		t.Errorf("taskwaits: records %d, spans %d, metrics %d",
			recBarriers, spanBarriers, metric("rt_taskwaits_total"))
	}
}
