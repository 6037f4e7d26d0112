package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file holds the span exporter: a self-describing JSON span dump
// (versioned envelope, spans in ID order), the format the flight
// recorder embeds. It is deterministic given the same recorded spans:
// output order is span-ID order, no map is iterated during rendering.
// A run's virtual timeline is drawn by internal/trace's Chrome
// exporter, one track per device.

// DumpVersion is the span-dump format version.
const DumpVersion = 1

// Dump is the JSON envelope of an exported span set.
type Dump struct {
	Version int    `json:"version"`
	Clock   string `json:"clock"`
	Spans   []Span `json:"spans"`
}

// clockNote documents the dump's time base inside the document itself.
const clockNote = "wall_*_ns are nanoseconds since tracer start; vstart/vend are virtual simulation nanoseconds"

// WriteJSON writes the self-describing span dump. Safe on nil (writes
// an empty document).
func (t *Tracer) WriteJSON(w io.Writer) error {
	d := Dump{Version: DumpVersion, Clock: clockNote, Spans: t.Spans()}
	if d.Spans == nil {
		d.Spans = []Span{}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encode spans: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ParseDump decodes a span dump, rejecting unknown versions.
func ParseDump(data []byte) (*Dump, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("telemetry: decode spans: %w", err)
	}
	if d.Version != DumpVersion {
		return nil, fmt.Errorf("telemetry: span dump version %d, this build reads %d", d.Version, DumpVersion)
	}
	return &d, nil
}
