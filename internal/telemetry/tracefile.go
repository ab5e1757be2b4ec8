package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TraceMeta identifies where a trace file came from.
type TraceMeta struct {
	// Label is a human-readable run name ("afs/sor/symmetry/p8").
	Label string `json:"label,omitempty"`
	// Substrate is "sim" or "real".
	Substrate string `json:"substrate,omitempty"`
	Machine   string `json:"machine,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Algo      string `json:"algo,omitempty"`
	Procs     int    `json:"procs"`
	// TimeUnit is "cycles" (simulator) or "ns" (real runtime).
	TimeUnit string `json:"time_unit,omitempty"`
}

// Unit returns the time unit, defaulting to "cycles".
func (m TraceMeta) Unit() string {
	if m.TimeUnit == "" {
		return "cycles"
	}
	return m.TimeUnit
}

// Name returns the best available short name for the run.
func (m TraceMeta) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.Algo != "" {
		return m.Algo
	}
	return "run"
}

// TraceFile is the one on-disk and on-the-wire trace capture: run
// identity plus the raw event stream and per-chunk provenance records.
// The simulator capture, the live flight recorder, the span tracer and
// perflab all write it; the forensics analyzer and loopdoctor read it.
type TraceFile struct {
	Meta   TraceMeta `json:"meta"`
	Events []Event   `json:"events,omitempty"`
	Prov   []Prov    `json:"prov,omitempty"`
}

// Write serialises the trace as JSON.
func (t *TraceFile) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// WriteFile writes the trace to path.
func (t *TraceFile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace parses a JSON trace.
func ReadTrace(r io.Reader) (*TraceFile, error) {
	var t TraceFile
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("telemetry: bad trace file: %w", err)
	}
	return &t, nil
}

// ReadTraceFile reads a trace from path.
func ReadTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
