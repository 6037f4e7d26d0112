package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chromeDoc mirrors the exporter's output shape for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func decodeChrome(t *testing.T, data []byte) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, data)
	}
	return doc
}

func TestChromeTraceGolden(t *testing.T) {
	var b bytes.Buffer
	if err := sample().ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_sample.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden file:\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	var b bytes.Buffer
	if err := sample().ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, b.Bytes())
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	trackNames := map[int]string{}
	lastTs := -1.0
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				trackNames[ev.Tid] = ev.Args["name"].(string)
			}
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("X event %q without non-negative dur", ev.Name)
			}
			if ev.Ts < lastTs {
				t.Fatalf("timestamps not monotonic: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
		default:
			t.Fatalf("unexpected phase %q (only X and M are emitted)", ev.Ph)
		}
	}
	if spans != len(sample().Records) {
		t.Fatalf("spans = %d, want %d", spans, len(sample().Records))
	}
	// Stable track names: both devices, decisions and barriers tracks.
	for tid, want := range map[int]string{
		0:                 "device 0 (host)",
		1:                 "device 1",
		decisionsTrackTid: DecisionsTrackName,
		runtimeTrackTid:   RuntimeTrackName,
	} {
		if trackNames[tid] != want {
			t.Fatalf("track %d = %q, want %q (all: %v)", tid, trackNames[tid], want, trackNames)
		}
	}
}

func TestChromeTraceNilAndEmpty(t *testing.T) {
	for name, tr := range map[string]*Trace{"nil": nil, "empty": {}} {
		var b bytes.Buffer
		if err := tr.ChromeTrace(&b); err != nil {
			t.Fatalf("%s trace: %v", name, err)
		}
		doc := decodeChrome(t, b.Bytes())
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "M" {
				t.Fatalf("%s trace emitted span %q", name, ev.Name)
			}
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		var b bytes.Buffer
		if err := sample().ChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("chrome export differs between identical traces")
	}
}

func TestJSONMicrosFormatting(t *testing.T) {
	cases := map[jsonMicros]string{
		0:       "0.000",
		1:       "0.001",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
		-1500:   "-1.500",
	}
	for in, want := range cases {
		got, err := in.MarshalJSON()
		if err != nil || string(got) != want {
			t.Fatalf("jsonMicros(%d) = %q, %v; want %q", int64(in), got, err, want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var b bytes.Buffer
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+len(sample().Records) {
		t.Fatalf("rows = %d, want %d", len(lines)-1, len(sample().Records))
	}
	// Sorted by start: first data row starts at 0.
	if !strings.Contains(lines[1], ",0,") {
		t.Fatalf("first row not earliest: %q", lines[1])
	}
	for _, want := range []string{"task,", "xfer,", "HtoD", "DtoH", "barrier,", "decision,"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("csv missing %q:\n%s", want, b.String())
		}
	}

	var nb bytes.Buffer
	var nilT *Trace
	if err := nilT.WriteCSV(&nb); err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(nb.String(), "\n") != CSVHeader {
		t.Fatalf("nil trace csv = %q", nb.String())
	}
}

func TestCSVQuote(t *testing.T) {
	if csvQuote("plain") != "plain" {
		t.Fatal("plain string quoted")
	}
	if csvQuote(`a,b"c`) != `"a,b""c"` {
		t.Fatalf("quoted = %q", csvQuote(`a,b"c`))
	}
}

// TestP2PTransferDirection: a peer-to-peer transfer lands on a device
// (ToDev is set), yet every view must name it P2P, never host-to-device.
func TestP2PTransferDirection(t *testing.T) {
	tr := &Trace{}
	tr.Add(Record{Kind: Transfer, Start: 0, End: 40, Device: 2, Label: "a(p2p 1->2)", Bytes: 64, ToDev: true, P2P: true})

	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if want := "xfer,0,40,2,a(p2p 1->2),,0,64,P2P\n"; !strings.HasSuffix(csv.String(), want) {
		t.Fatalf("csv = %q, want a row ending %q", csv.String(), want)
	}

	var b bytes.Buffer
	if err := tr.ChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, ev := range decodeChrome(t, b.Bytes()).TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		if ev.Name != "P2P a(p2p 1->2)" || ev.Args["direction"] != "P2P" {
			t.Fatalf("chrome event = %q %v, want P2P name and direction", ev.Name, ev.Args)
		}
	}
	if spans != 1 {
		t.Fatalf("chrome spans = %d, want 1", spans)
	}

	if g := tr.Gantt(); !strings.Contains(g, " P2P a(p2p 1->2)") || strings.Contains(g, "H->D") {
		t.Fatalf("gantt = %q, want the P2P direction", g)
	}
}
