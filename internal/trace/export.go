package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file holds the structured trace exporters:
//
//   - Chrome trace-event JSON, loadable in chrome://tracing and
//     Perfetto (ui.perfetto.dev): one timeline track per device
//     carrying task and transfer spans, plus a dedicated track for
//     scheduler decisions and one for runtime barriers;
//   - a flat CSV timeline for spreadsheet/pandas analysis.
//
// Both exporters are deterministic: records are ordered by
// (start, stable input order) and no map is ever iterated during
// rendering, so two identical runs export byte-identical files.

// chromeEvent is one trace-event object. Only "complete" (ph="X") and
// metadata (ph="M") events are emitted; complete events carry their
// duration, so no B/E balancing is needed by consumers.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Cat  string           `json:"cat,omitempty"`
	Ts   jsonMicros       `json:"ts"`
	Dur  *jsonMicros      `json:"dur,omitempty"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args *chromeEventArgs `json:"args,omitempty"`
}

// chromeEventArgs is the structured payload shown in the trace viewer's
// selection panel.
type chromeEventArgs struct {
	Name      string `json:"name,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Elems     int64  `json:"elems,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	Direction string `json:"direction,omitempty"`
	Device    *int   `json:"device,omitempty"`
}

// jsonMicros renders virtual nanoseconds as microseconds (the
// trace-event time unit) with fixed three-decimal formatting, so
// output bytes are stable across runs and platforms.
type jsonMicros int64

func (m jsonMicros) MarshalJSON() ([]byte, error) {
	ns := int64(m)
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return []byte(fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)), nil
}

// Track layout: pid 0 holds everything; device tracks use the device
// ID as tid (host = 0), the decisions track and the runtime (barrier)
// track sit above any plausible device count.
const (
	chromePid         = 0
	decisionsTrackTid = 1000
	runtimeTrackTid   = 1001
)

// DeviceTrackName is the stable per-device track label used in the
// Chrome trace export.
func DeviceTrackName(dev int) string {
	if dev == 0 {
		return "device 0 (host)"
	}
	return fmt.Sprintf("device %d", dev)
}

// Names of the non-device tracks.
const (
	DecisionsTrackName = "scheduler decisions"
	RuntimeTrackName   = "runtime barriers"
)

// ChromeTrace writes the trace in Chrome trace-event JSON ("JSON
// object format": a traceEvents array plus displayTimeUnit). A nil or
// empty trace writes a valid file with only metadata. Events are
// sorted by (start, record order); every span is a complete "X" event.
func (t *Trace) ChromeTrace(w io.Writer) error {
	recs := t.sortedRecords()

	// Collect the devices present, in ascending ID order.
	devSet := map[int]bool{}
	hasDecisions, hasBarriers := false, false
	for _, r := range recs {
		switch r.Kind {
		case TaskRun, Transfer:
			devSet[r.Device] = true
		case Decision:
			hasDecisions = true
		case Barrier:
			hasBarriers = true
		}
	}
	devs := make([]int, 0, len(devSet))
	for d := range devSet {
		devs = append(devs, d)
	}
	sort.Ints(devs)

	events := make([]chromeEvent, 0, len(recs)+len(devs)+3)
	meta := func(tid int, name string) {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: &chromeEventArgs{Name: name},
		})
	}
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
		Args: &chromeEventArgs{Name: "heteropart"},
	})
	for _, d := range devs {
		meta(d, DeviceTrackName(d))
	}
	if hasDecisions {
		meta(decisionsTrackTid, DecisionsTrackName)
	}
	if hasBarriers {
		meta(runtimeTrackTid, RuntimeTrackName)
	}

	for _, r := range recs {
		ev := chromeEvent{Ph: "X", Pid: chromePid, Ts: jsonMicros(r.Start)}
		dur := jsonMicros(r.Span())
		ev.Dur = &dur
		switch r.Kind {
		case TaskRun:
			ev.Name = r.Label
			ev.Cat = "task"
			ev.Tid = r.Device
			ev.Args = &chromeEventArgs{Kernel: r.Kernel, Elems: r.Elems}
		case Transfer:
			dir := r.direction()
			ev.Name = dir + " " + r.Label
			ev.Cat = "transfer"
			ev.Tid = r.Device
			ev.Args = &chromeEventArgs{Bytes: r.Bytes, Direction: dir}
		case Decision:
			ev.Name = "decide " + r.Label
			ev.Cat = "decision"
			ev.Tid = decisionsTrackTid
			dev := r.Device
			ev.Args = &chromeEventArgs{Device: &dev}
		case Barrier:
			ev.Name = r.Label
			ev.Cat = "barrier"
			ev.Tid = runtimeTrackTid
		default:
			ev.Name = r.Label
			ev.Cat = r.Kind.String()
			ev.Tid = runtimeTrackTid
		}
		events = append(events, ev)
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// CSVHeader is the column list of the CSV exporter.
const CSVHeader = "kind,start_ns,end_ns,device,label,kernel,elems,bytes,direction"

// WriteCSV writes the trace as a flat CSV timeline, one row per record,
// sorted by (start, record order). A nil or empty trace writes only the
// header.
func (t *Trace) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(CSVHeader)
	b.WriteByte('\n')
	for _, r := range t.sortedRecords() {
		dir := ""
		if r.Kind == Transfer {
			dir = r.direction()
		}
		b.WriteString(r.Kind.String())
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(int64(r.Start), 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(int64(r.End), 10))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(r.Device))
		b.WriteByte(',')
		b.WriteString(csvQuote(r.Label))
		b.WriteByte(',')
		b.WriteString(csvQuote(r.Kernel))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(r.Elems, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(r.Bytes, 10))
		b.WriteByte(',')
		b.WriteString(dir)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// direction names a transfer record's direction in the exports.
func (r Record) direction() string {
	switch {
	case r.P2P:
		return "P2P"
	case r.ToDev:
		return "HtoD"
	}
	return "DtoH"
}

// csvQuote quotes a field when it contains CSV metacharacters.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// sortedRecords returns the records sorted by start time, preserving
// input order among equal starts. Safe on nil.
func (t *Trace) sortedRecords() []Record {
	if t == nil || len(t.Records) == 0 {
		return nil
	}
	recs := make([]Record, len(t.Records))
	copy(recs, t.Records)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	return recs
}
