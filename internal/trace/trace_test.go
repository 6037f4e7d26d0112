package trace

import (
	"strings"
	"testing"
)

func sample() *Trace {
	t := &Trace{}
	t.Add(Record{Kind: TaskRun, Start: 100, End: 200, Device: 1, Label: "k#0", Kernel: "k", Elems: 500})
	t.Add(Record{Kind: TaskRun, Start: 0, End: 150, Device: 0, Label: "k#1", Kernel: "k", Elems: 300})
	t.Add(Record{Kind: TaskRun, Start: 150, End: 260, Device: 0, Label: "j#2", Kernel: "j", Elems: 100})
	t.Add(Record{Kind: Transfer, Start: 0, End: 50, Device: 1, Label: "a", Bytes: 4000, ToDev: true})
	t.Add(Record{Kind: Transfer, Start: 300, End: 350, Device: 1, Label: "a", Bytes: 2000, ToDev: false})
	t.Add(Record{Kind: Decision, Start: 0, End: 5, Device: 0, Label: "k#1"})
	t.Add(Record{Kind: Barrier, Start: 350, End: 400, Device: -1, Label: "taskwait"})
	return t
}

func TestKindNames(t *testing.T) {
	if TaskRun.String() != "task" || Transfer.String() != "xfer" ||
		Barrier.String() != "barrier" || Decision.String() != "decision" {
		t.Fatal("kind names wrong")
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add(Record{Kind: TaskRun}) // must not panic
	if tr.TasksOn(0) != nil || tr.Utilization(100) != nil {
		t.Fatal("nil trace leaked data")
	}
	if h, d := tr.LinkOccupancy(); h != 0 || d != 0 {
		t.Fatal("nil trace link occupancy non-zero")
	}
	if tr.Gantt() != "(empty trace)\n" {
		t.Fatal("nil trace gantt wrong")
	}
}

func TestTasksOnSortsByStart(t *testing.T) {
	tr := sample()
	on0 := tr.TasksOn(0)
	if len(on0) != 2 || on0[0].Label != "k#1" || on0[1].Label != "j#2" {
		t.Fatalf("TasksOn(0) = %v", on0)
	}
	if len(tr.TasksOn(7)) != 0 {
		t.Fatal("unknown device has tasks")
	}
}

// byDevice indexes a Utilization result by device ID.
func byDevice(us []DeviceUtilization) map[int]DeviceUtilization {
	out := make(map[int]DeviceUtilization, len(us))
	for _, u := range us {
		out[u.Device] = u
	}
	return out
}

func TestElemsByDevice(t *testing.T) {
	tr := sample()
	all := byDevice(tr.Utilization(400))
	if all[0].Elems != 400 || all[1].Elems != 500 {
		t.Fatalf("all-kernel elems = %+v", all)
	}
	// Per-kernel split: the TaskRun records carry the kernel name.
	kOnly := make(map[int]int64)
	for _, dev := range []int{0, 1} {
		for _, r := range tr.TasksOn(dev) {
			if r.Kernel == "k" {
				kOnly[dev] += r.Elems
			}
		}
	}
	if kOnly[0] != 300 || kOnly[1] != 500 {
		t.Fatalf("kernel-k elems = %v", kOnly)
	}
}

func TestBusyByDevice(t *testing.T) {
	busy := byDevice(sample().Utilization(400))
	if busy[0].Busy != 260 || busy[1].Busy != 100 {
		t.Fatalf("busy = %+v", busy)
	}
}

func TestDecisionsCount(t *testing.T) {
	got := 0
	for _, u := range sample().Utilization(400) {
		got += u.Decisions
	}
	if got != 1 {
		t.Fatalf("decisions = %d", got)
	}
}

func TestGanttMentionsEverything(t *testing.T) {
	g := sample().Gantt()
	for _, want := range []string{"task", "xfer", "H->D", "D->H", "barrier", "decision", "k#0"} {
		if !strings.Contains(g, want) {
			t.Fatalf("gantt missing %q:\n%s", want, g)
		}
	}
	// Sorted by start: the decision (t=0) precedes the t=100 task.
	if strings.Index(g, "decision") > strings.Index(g, "k#0") {
		t.Fatalf("gantt not start-sorted:\n%s", g)
	}
}

func TestRecordSpan(t *testing.T) {
	r := Record{Start: 10, End: 35}
	if r.Span() != 25 {
		t.Fatalf("span = %v", r.Span())
	}
}

func TestUtilization(t *testing.T) {
	tr := sample()
	us := tr.Utilization(400)
	if len(us) != 2 {
		t.Fatalf("devices = %d", len(us))
	}
	// Device 0: spans 150 + 110 = 260 busy, 2 tasks, 400 elems.
	if us[0].Device != 0 || us[0].Busy != 260 || us[0].Tasks != 2 || us[0].Elems != 400 {
		t.Fatalf("dev0 = %+v", us[0])
	}
	if us[0].Utilization < 0.64 || us[0].Utilization > 0.66 {
		t.Fatalf("dev0 utilization = %v", us[0].Utilization)
	}
	if us[1].Device != 1 || us[1].Busy != 100 || us[1].Elems != 500 {
		t.Fatalf("dev1 = %+v", us[1])
	}
	rep := tr.UtilizationReport(400)
	if !strings.Contains(rep, "device 0") || !strings.Contains(rep, "device 1") {
		t.Fatalf("report = %q", rep)
	}
	var nilT *Trace
	if nilT.Utilization(100) != nil {
		t.Fatal("nil trace utilization non-nil")
	}
	if !strings.Contains(nilT.UtilizationReport(100), "no task records") {
		t.Fatal("nil trace report wrong")
	}
}

func TestLinkOccupancy(t *testing.T) {
	tr := sample()
	h, d := tr.LinkOccupancy()
	if h != 50 || d != 50 {
		t.Fatalf("occupancy = %v/%v", h, d)
	}
	var nilT *Trace
	if a, b := nilT.LinkOccupancy(); a != 0 || b != 0 {
		t.Fatal("nil trace occupancy nonzero")
	}
}
