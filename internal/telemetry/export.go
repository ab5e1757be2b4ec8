package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	Kind   string  `json:"kind"`
	Proc   int     `json:"proc"`
	Victim int     `json:"victim,omitempty"`
	Step   int     `json:"step"`
	Lo     int     `json:"lo"`
	Hi     int     `json:"hi"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// WriteJSONL writes one JSON object per event, one per line — the
// grep/jq-friendly dump format.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		je := jsonEvent{
			Kind: e.Kind.String(), Proc: e.Proc, Victim: e.Victim,
			Step: e.Step, Lo: e.Lo, Hi: e.Hi, Start: e.Start, End: e.End,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesCSV writes a registry's per-step time series as CSV: one
// row per step, one column per metric (cumulative values — diff
// adjacent rows for per-step rates).
func WriteSeriesCSV(w io.Writer, r *Registry) error {
	names := r.MetricNames()
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"step"}, names...)); err != nil {
		return err
	}
	for _, s := range r.Series() {
		rec := make([]string, 0, len(names)+1)
		rec = append(rec, strconv.Itoa(s.Step))
		for _, n := range names {
			rec = append(rec, strconv.FormatFloat(s.Values[n], 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
