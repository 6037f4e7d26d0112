package exp

import (
	"context"
	"fmt"
	"sort"

	"heteropart/internal/apps"
	"heteropart/internal/runner"
	"heteropart/internal/sim"
	"heteropart/internal/strategy"
)

// skConfigs are the strategies compared for the single-kernel classes
// (Figs. 5-8).
var skConfigs = []string{"Only-GPU", "Only-CPU", "SP-Single", "DP-Perf", "DP-Dep"}

// mkConfigs are the strategies compared for the multi-kernel classes
// (Figs. 9-11).
var mkConfigs = []string{"Only-GPU", "Only-CPU", "SP-Unified", "DP-Perf", "DP-Dep", "SP-Varied"}

// Fig5a reproduces MatrixMul's comparison (Section IV-B1).
func Fig5a(env *Env) (*Table, error) {
	res, err := env.timesFor("MatrixMul", apps.SyncDefault, skConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig5a", Title: "MatrixMul execution time", Columns: []string{"strategy", "time (ms)", "GPU share"}}
	for _, s := range skConfigs {
		t.AddRow(s, ms(res[s].Result.Makespan), pct(res[s].GPURatio()))
	}
	ocOverOG := res["Only-CPU"].Result.Makespan.Seconds() / res["Only-GPU"].Result.Makespan.Seconds()
	t.AddCheck("Only-GPU performs much better than Only-CPU", ocOverOG > 5,
		fmt.Sprintf("OC/OG = %.1fx", ocOverOG))
	t.AddCheck("SP-Single is the best strategy", fastest(res) == "SP-Single", "")
	g := res["SP-Single"].GPURatio()
	t.AddCheck("SP-Single assigns ~90% of the data to the GPU", g > 0.85 && g < 0.95, pct(g))
	t.AddCheck("DP-Perf assigns (nearly) all instances to the GPU",
		res["DP-Perf"].GPURatio() > 0.9, pct(res["DP-Perf"].GPURatio()))
	t.AddCheck("DP-Dep gives the GPU only one task instance",
		res["DP-Dep"].Result.InstancesByDevice[1] == 1,
		fmt.Sprintf("%d GPU instances", res["DP-Dep"].Result.InstancesByDevice[1]))
	t.AddCheck("DP-Perf outperforms DP-Dep",
		res["DP-Perf"].Result.Makespan <= res["DP-Dep"].Result.Makespan, "")
	return t, nil
}

// Fig5b reproduces BlackScholes' comparison (Section IV-B1).
func Fig5b(env *Env) (*Table, error) {
	res, err := env.timesFor("BlackScholes", apps.SyncDefault, skConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig5b", Title: "BlackScholes execution time", Columns: []string{"strategy", "time (ms)", "GPU share"}}
	for _, s := range skConfigs {
		t.AddRow(s, ms(res[s].Result.Makespan), pct(res[s].GPURatio()))
	}
	t.AddCheck("SP-Single performs the best out of all", fastest(res) == "SP-Single", "")
	g := res["SP-Single"].GPURatio()
	t.AddCheck("SP-Single calculates a ~41%/59% CPU/GPU assignment", g > 0.54 && g < 0.64, pct(g))
	t.AddCheck("DP-Perf overestimates the GPU (assigns more than optimal)",
		res["DP-Perf"].GPURatio() > g, pct(res["DP-Perf"].GPURatio()))
	t.AddCheck("DP-Dep performs the worst (assigns too much to the CPU)",
		fastestInverse(res) == "DP-Dep" || res["DP-Dep"].Result.Makespan >= res["DP-Perf"].Result.Makespan,
		"")
	return t, nil
}

// fastestInverse returns the slowest strategy (deterministically).
func fastestInverse(res map[string]*strategy.Outcome) string {
	names := make([]string, 0, len(res))
	for n := range res {
		names = append(names, n)
	}
	sort.Strings(names)
	worst, worstT := "", sim.Duration(-1)
	for _, n := range names {
		if t := res[n].Result.Makespan; t > worstT {
			worst, worstT = n, t
		}
	}
	return worst
}

// Fig6 reports the SK-One partitioning ratios.
func Fig6(env *Env) (*Table, error) {
	t := &Table{ID: "fig6", Title: "Partitioning ratio of different strategies in SK-One",
		Columns: []string{"app", "strategy", "CPU", "GPU"}}
	for _, appName := range []string{"MatrixMul", "BlackScholes"} {
		for _, s := range []string{"SP-Single", "DP-Perf", "DP-Dep"} {
			o, err := env.runOne(appName, apps.SyncDefault, s)
			if err != nil {
				return nil, err
			}
			t.AddRow(appName, s, pct(1-o.GPURatio()), pct(o.GPURatio()))
		}
	}
	return t, nil
}

// Fig7a reproduces Nbody's comparison (Section IV-B2).
func Fig7a(env *Env) (*Table, error) {
	res, err := env.timesFor("Nbody", apps.SyncDefault, skConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig7a", Title: "Nbody execution time", Columns: []string{"strategy", "time (ms)", "GPU share"}}
	for _, s := range skConfigs {
		t.AddRow(s, ms(res[s].Result.Makespan), pct(res[s].GPURatio()))
	}
	t.AddCheck("SP-Single gets the best performance", fastest(res) == "SP-Single", "")
	t.AddCheck("the GPU performs much better than the CPU (SP-Single assigns most work to the GPU)",
		res["SP-Single"].GPURatio() > 0.7, pct(res["SP-Single"].GPURatio()))
	t.AddCheck("DP-Perf detects a similar partitioning to SP-Single but performs worse",
		res["DP-Perf"].Result.Makespan > res["SP-Single"].Result.Makespan, "")
	t.AddCheck("DP-Dep results in the worst performance",
		fastestInverse(res) == "DP-Dep" || res["DP-Dep"].Result.Makespan >= res["DP-Perf"].Result.Makespan, "")
	return t, nil
}

// Fig7b reproduces HotSpot's comparison (Section IV-B2).
func Fig7b(env *Env) (*Table, error) {
	res, err := env.timesFor("HotSpot", apps.SyncDefault, skConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig7b", Title: "HotSpot execution time", Columns: []string{"strategy", "time (ms)", "GPU share"}}
	for _, s := range skConfigs {
		t.AddRow(s, ms(res[s].Result.Makespan), pct(res[s].GPURatio()))
	}
	t.AddCheck("SP-Single gets the best performance", fastest(res) == "SP-Single", "")
	t.AddCheck("HotSpot has better performance on the CPU (GPU worse due to transfers)",
		res["Only-CPU"].Result.Makespan < res["Only-GPU"].Result.Makespan, "")
	t.AddCheck("SP-Single assigns a large partition to the CPU",
		res["SP-Single"].GPURatio() < 0.5, pct(res["SP-Single"].GPURatio()))
	t.AddCheck("DP-Perf outperforms DP-Dep",
		res["DP-Perf"].Result.Makespan <= res["DP-Dep"].Result.Makespan, "")
	return t, nil
}

// Fig8 reports the SK-Loop partitioning ratios.
func Fig8(env *Env) (*Table, error) {
	t := &Table{ID: "fig8", Title: "Partitioning ratio of different strategies in SK-Loop",
		Columns: []string{"app", "strategy", "CPU", "GPU"}}
	for _, appName := range []string{"Nbody", "HotSpot"} {
		for _, s := range []string{"SP-Single", "DP-Perf", "DP-Dep"} {
			o, err := env.runOne(appName, apps.SyncDefault, s)
			if err != nil {
				return nil, err
			}
			t.AddRow(appName, s, pct(1-o.GPURatio()), pct(o.GPURatio()))
		}
	}
	return t, nil
}

// Fig9 reproduces STREAM-Seq with and without inter-kernel sync
// (Section IV-B3).
func Fig9(env *Env) (*Table, error) {
	wo, err := env.timesFor("STREAM-Seq", apps.SyncNone, mkConfigs)
	if err != nil {
		return nil, err
	}
	w, err := env.timesFor("STREAM-Seq", apps.SyncForced, mkConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig9", Title: "STREAM-Seq execution time",
		Columns: []string{"strategy", "w/o sync (ms)", "w sync (ms)"}}
	for _, s := range mkConfigs {
		t.AddRow(s, ms(wo[s].Result.Makespan), ms(w[s].Result.Makespan))
	}
	t.AddCheck("w/o sync: SP-Unified performs the best", fastest(wo) == "SP-Unified", "")
	g := wo["SP-Unified"].GPURatio()
	t.AddCheck("SP-Unified keeps ~44% of the elements on the GPU", g > 0.39 && g < 0.55, pct(g))
	t.AddCheck("w/o sync: SP-Varied performs the worst of the partitioning strategies",
		wo["SP-Varied"].Result.Makespan >= wo["DP-Dep"].Result.Makespan*95/100, "")
	t.AddCheck("w sync: SP-Varied becomes the best performing strategy", fastest(w) == "SP-Varied", "")
	t.AddCheck("w sync: SP-Unified gets the worst partitioned performance",
		w["SP-Unified"].Result.Makespan >= w["DP-Dep"].Result.Makespan, "")
	degr := float64(w["DP-Perf"].Result.Makespan)/float64(wo["DP-Perf"].Result.Makespan) - 1
	t.AddCheck("sync degrades dynamic partitioning (paper: ~35%)", degr > 0.10,
		fmt.Sprintf("%.0f%%", degr*100))
	return t, nil
}

// Fig10 reports the MK-Seq partitioning ratios, including SP-Varied's
// per-kernel points.
func Fig10(env *Env) (*Table, error) {
	t := &Table{ID: "fig10", Title: "Partitioning ratio of different strategies in MK-Seq",
		Columns: []string{"strategy", "kernel", "CPU", "GPU"}}
	for _, s := range []string{"SP-Unified", "DP-Perf", "DP-Dep"} {
		o, err := env.runOne("STREAM-Seq", apps.SyncNone, s)
		if err != nil {
			return nil, err
		}
		t.AddRow(s, "(all)", pct(1-o.GPURatio()), pct(o.GPURatio()))
	}
	// SP-Varied per kernel (only meaningful in the w-sync case).
	o, err := env.runOne("STREAM-Seq", apps.SyncForced, "SP-Varied")
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"copy", "scale", "add", "triad"} {
		g := o.Result.KernelGPURatio(k)
		t.AddRow("SP-Varied", k, pct(1-g), pct(g))
	}
	t.AddCheck("SP-Varied determines a separate partitioning point per kernel",
		len(o.Decisions) == 4, fmt.Sprintf("%d decisions", len(o.Decisions)))
	return t, nil
}

// Fig11 reproduces STREAM-Loop with and without inter-kernel sync
// (Section IV-B4).
func Fig11(env *Env) (*Table, error) {
	wo, err := env.timesFor("STREAM-Loop", apps.SyncNone, mkConfigs)
	if err != nil {
		return nil, err
	}
	w, err := env.timesFor("STREAM-Loop", apps.SyncForced, mkConfigs)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig11", Title: "STREAM-Loop execution time",
		Columns: []string{"strategy", "w/o sync (ms)", "w sync (ms)"}}
	for _, s := range mkConfigs {
		t.AddRow(s, ms(wo[s].Result.Makespan), ms(w[s].Result.Makespan))
	}
	t.AddCheck("w/o sync: Only-GPU outperforms Only-CPU (kernels iterated many times)",
		wo["Only-GPU"].Result.Makespan < wo["Only-CPU"].Result.Makespan, "")
	t.AddCheck("w/o sync: SP-Unified obtains the best performance", fastest(wo) == "SP-Unified", "")
	t.AddCheck("w sync: SP-Varied performs the best", fastest(w) == "SP-Varied", "")
	t.AddCheck("w sync: SP-Unified's fixed partitioning gives the GPU too much work (worst partitioned)",
		w["SP-Unified"].Result.Makespan >= w["DP-Dep"].Result.Makespan, "")
	return t, nil
}

// fig12Cases are the eight application variants of Fig. 12.
var fig12Cases = []struct {
	Label string
	App   string
	Sync  apps.SyncMode
}{
	{"MatrixMul", "MatrixMul", apps.SyncDefault},
	{"BlackScholes", "BlackScholes", apps.SyncDefault},
	{"Nbody", "Nbody", apps.SyncDefault},
	{"HotSpot", "HotSpot", apps.SyncDefault},
	{"STREAM-Seq-w/o", "STREAM-Seq", apps.SyncNone},
	{"STREAM-Seq-w", "STREAM-Seq", apps.SyncForced},
	{"STREAM-Loop-w/o", "STREAM-Loop", apps.SyncNone},
	{"STREAM-Loop-w", "STREAM-Loop", apps.SyncForced},
}

// Fig12 reproduces the speedup summary: the analyzer's best
// partitioning strategy against the Only-GPU and Only-CPU executions
// per application, with the averages the paper headlines (3.0x /
// 5.3x).
func Fig12(env *Env) (*Table, error) {
	t := &Table{ID: "fig12", Title: "Speedup of the best strategy vs Only-GPU (OG) and Only-CPU (OC)",
		Columns: []string{"app", "best strategy", "vs OG", "vs OC"}}
	var sumOG, sumOC float64
	allAbove := true
	for _, c := range fig12Cases {
		// The matchmade spec's decision is cached under the best
		// strategy's plan key, so the run below reuses it.
		_, rep, err := env.R.PlanContext(context.Background(),
			runner.Spec{App: c.App, Sync: c.Sync, Plat: env.Plat})
		if err != nil {
			return nil, err
		}
		best := rep.Best
		res, err := env.timesFor(c.App, c.Sync, []string{best, "Only-GPU", "Only-CPU"})
		if err != nil {
			return nil, err
		}
		og := res["Only-GPU"].Result.Makespan.Seconds() / res[best].Result.Makespan.Seconds()
		oc := res["Only-CPU"].Result.Makespan.Seconds() / res[best].Result.Makespan.Seconds()
		sumOG += og
		sumOC += oc
		if og < 0.99 || oc < 0.99 {
			allAbove = false
		}
		t.AddRow(c.Label, best, fmt.Sprintf("%.2fx", og), fmt.Sprintf("%.2fx", oc))
	}
	n := float64(len(fig12Cases))
	avgOG, avgOC := sumOG/n, sumOC/n
	t.AddRow("Average", "", fmt.Sprintf("%.2fx", avgOG), fmt.Sprintf("%.2fx", avgOC))
	t.AddCheck("the best strategy never loses to a single-device execution", allAbove, "")
	t.AddCheck("meaningful average speedup over Only-GPU (paper: 3.0x)", avgOG > 1.3,
		fmt.Sprintf("%.2fx", avgOG))
	t.AddCheck("meaningful average speedup over Only-CPU (paper: 5.3x)", avgOC > 2.0,
		fmt.Sprintf("%.2fx", avgOC))
	return t, nil
}
