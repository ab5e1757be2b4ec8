package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindPhaseBegin, Proc: -1, Victim: -1, Step: 0, Hi: 8, Start: 0, End: 0},
		{Kind: KindExec, Proc: 0, Victim: -1, Step: 0, Lo: 0, Hi: 4, Start: 0, End: 40},
		{Kind: KindSteal, Proc: 1, Victim: 0, Step: 0, Lo: 4, Hi: 8, Start: 5, End: 9},
		{Kind: KindQueueWait, Proc: 1, Victim: -1, Step: 0, Start: 1, End: 5},
		{Kind: KindExec, Proc: 1, Victim: -1, Step: 0, Lo: 4, Hi: 8, Start: 9, End: 45},
		{Kind: KindPhaseEnd, Proc: -1, Victim: -1, Step: 0, Start: 45, End: 45},
	}
}

func TestWriteJSONL(t *testing.T) {
	var b strings.Builder
	if err := WriteJSONL(&b, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &obj); err != nil {
		t.Fatal(err)
	}
	if obj["kind"] != "steal" || obj["victim"] != float64(0) && obj["victim"] != nil {
		t.Errorf("steal line = %v", obj)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	r := NewRegistry()
	obs := ObserveMetrics(r, "ns")
	obs.Phase(PhaseMark{Step: 0, Barrier: true, Ops: OpCounts{Steals: 2}})
	obs.Chunk(Prov{Stolen: true, QueueWait: 0.5})
	obs.Phase(PhaseMark{Step: 1, Barrier: true, Ops: OpCounts{Steals: 3}})
	var b strings.Builder
	if err := WriteSeriesCSV(&b, r); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][4] != "steals" || recs[1][4] != "2" || recs[2][4] != "5" {
		t.Errorf("series csv = %v", recs)
	}
	if got := strings.Join(recs[2], ","); got != "1,0,0,0,5,0,0,1,0,0,0,1,0.5" {
		t.Errorf("step 1 row = %s", got)
	}
}

// TestChromeTraceShape: the export is valid JSON with one named thread
// track per processor, X slices for execs, and paired s/f flow events
// for steals.
func TestChromeTraceShape(t *testing.T) {
	var b strings.Builder
	err := WriteChromeTrace(&b, sampleEvents(), ChromeOptions{Label: "test", Procs: 2, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	threads := map[float64]bool{}
	var execs, flowS, flowF int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				threads[e["tid"].(float64)] = true
			}
		case "X":
			if cat, _ := e["cat"].(string); cat == "exec" {
				execs++
			}
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if !threads[0] || !threads[1] {
		t.Errorf("missing per-processor tracks: %v", threads)
	}
	if execs != 2 {
		t.Errorf("execs = %d", execs)
	}
	if flowS != 1 || flowF != 1 {
		t.Errorf("steal flow events s=%d f=%d", flowS, flowF)
	}
}

// TestChromeTraceDerivesProcs: with Procs unset, tracks cover every
// processor seen in the events, victims included.
func TestChromeTraceDerivesProcs(t *testing.T) {
	var b strings.Builder
	events := []Event{{Kind: KindSteal, Proc: 3, Victim: 5, Lo: 0, Hi: 1}}
	if err := WriteChromeTrace(&b, events, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"P5"`) {
		t.Error("victim track P5 missing")
	}
}
