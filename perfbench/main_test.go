package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	return endToEnd, perLayer
}

// checkMetrics asserts that a run printed exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared", name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at its smallest op count and
// checks that it passes and prints every end-to-end metric.
func TestWorkloadsSmoke(t *testing.T) {
	want, _ := declared(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setUp(g, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			m := newMeasurement(b)
			m.run(b, w.clients, 0, b.len())
			for _, e := range m.errs {
				t.Error(e)
			}
			if m.failed != 0 {
				t.Fatalf("%d of %d ops failed", m.failed, b.len())
			}
			checkMetrics(t, endToEnd(m, 0.5), want)
		})
	}
}

// TestTracedRun checks that the traced mode passes and prints every
// per-layer metric.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run takes several seconds")
	}
	_, perLayer := declared(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTraced(g, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("traced run: %d of %d ops failed", rep.Failed, rep.Attempted)
	}
	checkMetrics(t, rep.Metrics, perLayer)
}

// TestGoldenRejectsPerturbedOutcome checks that the golden record
// catches a changed simulation, for recorded ops and pool entries.
func TestGoldenRejectsPerturbedOutcome(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := computeOps()
	if err != nil {
		t.Fatal(err)
	}
	plats, err := platforms()
	if err != nil {
		t.Fatal(err)
	}
	o := ops[0]
	got, err := o.run(plats[o.plat])
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check(o.key, got); err != nil {
		t.Fatalf("unperturbed outcome rejected: %v", err)
	}
	perturbed := []func(*outcome){
		func(o *outcome) { o.MakespanNs++ },
		func(o *outcome) { o.Instances++ },
		func(o *outcome) { o.Decisions++ },
		func(o *outcome) { o.Transfers++ },
		func(o *outcome) { o.HtoDBytes++ },
		func(o *outcome) { o.DtoHBytes++ },
		func(o *outcome) { o.P2PBytes++ },
	}
	for i, perturb := range perturbed {
		bad := got
		perturb(&bad)
		if g.check(o.key, bad) == nil {
			t.Errorf("perturbation %d of %s accepted", i, o.key)
		}
	}
	if g.check("no such op", got) == nil {
		t.Error("outcome of an unrecorded op accepted")
	}

	svc := newService(nil)
	defer svc.Close()
	pool, err := serveInProcess(svc.Handler(), poolBody(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.checkPool(3, pool); err != nil {
		t.Fatalf("unperturbed pool outcome rejected: %v", err)
	}
	pool.MakespanNs++
	if g.checkPool(3, pool) == nil {
		t.Error("perturbed pool outcome accepted")
	}
	if g.checkPool(poolSize, pool) == nil {
		t.Error("outcome of an unrecorded pool entry accepted")
	}
}
