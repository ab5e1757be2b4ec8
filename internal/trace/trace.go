// Package trace records what a run actually did — which processor
// executed which chunk when, and who stole from whom — and renders it
// as a text Gantt chart. Traces make the scheduling behaviour
// inspectable (e.g. watching AFS's deterministic placement stay put
// while GSS's assignment churns between phases) and give tests a way
// to assert fine-grained properties like "an iteration is never
// reassigned twice".
//
// The package is a consumer of the unified telemetry event stream
// (internal/telemetry): a *Trace is a telemetry.Sink, so
// telemetry.ObserveEvents attaches it to either execution substrate's
// observer. Exec and steal events are retained; other event kinds are
// ignored.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Kind classifies an event.
type Kind int

const (
	// Exec is the execution of one chunk by one processor.
	Exec Kind = iota
	// Steal is the removal of a chunk from another processor's queue.
	Steal
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Exec:
		return "exec"
	case Steal:
		return "steal"
	}
	return "unknown"
}

// Event is one scheduling occurrence.
type Event struct {
	Kind   Kind
	Proc   int // the acting processor
	Victim int // Steal only: whose queue lost the chunk
	Step   int // program step (outer-loop phase)
	Chunk  sched.Chunk
	Start  float64 // cycles
	End    float64
}

// Trace accumulates events from one simulation run.
type Trace struct {
	Procs  int
	Events []Event
}

// New creates a trace for p processors.
func New(p int) *Trace { return &Trace{Procs: p} }

// Add appends an event (engines call this; not safe for concurrent
// use, matching the single-threaded simulator).
func (t *Trace) Add(e Event) { t.Events = append(t.Events, e) }

// Emit makes *Trace a telemetry.Sink: exec and steal events from the
// unified stream are recorded, other kinds are ignored.
func (t *Trace) Emit(e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindExec:
		t.Add(Event{Kind: Exec, Proc: e.Proc, Victim: -1, Step: e.Step,
			Chunk: sched.Chunk{Lo: e.Lo, Hi: e.Hi}, Start: e.Start, End: e.End})
	case telemetry.KindSteal:
		t.Add(Event{Kind: Steal, Proc: e.Proc, Victim: e.Victim, Step: e.Step,
			Chunk: sched.Chunk{Lo: e.Lo, Hi: e.Hi}, Start: e.Start, End: e.End})
	}
}

// Steals returns only the steal events.
func (t *Trace) Steals() []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Kind == Steal {
			out = append(out, e)
		}
	}
	return out
}

// ExecutedBy returns, for a given step, which processor executed each
// iteration. Iterations not seen map to -1.
func (t *Trace) ExecutedBy(step, n int) []int {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for _, e := range t.Events {
		if e.Kind != Exec || e.Step != step {
			continue
		}
		for i := e.Chunk.Lo; i < e.Chunk.Hi && i < n; i++ {
			owner[i] = e.Proc
		}
	}
	return owner
}

// MigrationCount returns how many iterations of a step ran on a
// processor other than its static home (the affinity-loss metric).
func (t *Trace) MigrationCount(step, n int) int {
	owner := t.ExecutedBy(step, n)
	home := make([]int, n)
	for p, chs := range sched.Static(n, t.Procs) {
		for _, c := range chs {
			for i := c.Lo; i < c.Hi; i++ {
				home[i] = p
			}
		}
	}
	moved := 0
	for i, o := range owner {
		if o >= 0 && o != home[i] {
			moved++
		}
	}
	return moved
}

// Span returns the earliest start and latest end across all events.
func (t *Trace) Span() (start, end float64) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	start, end = t.Events[0].Start, t.Events[0].End
	for _, e := range t.Events {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end
}

// Gantt renders a text chart: one row per processor, time bucketed
// into width columns; '#' marks executing, '*' marks a bucket
// containing a steal, '.' idle.
func (t *Trace) Gantt(w io.Writer, width int) {
	if width < 10 {
		width = 10
	}
	start, end := t.Span()
	if end <= start {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	scale := float64(width) / (end - start)
	rows := make([][]byte, t.Procs)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(".", width))
	}
	mark := func(p int, from, to float64, ch byte) {
		if p < 0 || p >= t.Procs {
			return
		}
		lo := int((from - start) * scale)
		hi := int((to - start) * scale)
		// Clamp BOTH ends into [0, width): a zero-duration event at the
		// span's end maps to column width, and events recorded with
		// from < Span() start (possible in merged traces) map below 0.
		if lo < 0 {
			lo = 0
		}
		if lo >= width {
			lo = width - 1
		}
		if hi >= width {
			hi = width - 1
		}
		if hi < lo {
			hi = lo
		}
		for i := lo; i <= hi; i++ {
			if ch == '*' || rows[p][i] == '.' {
				rows[p][i] = ch
			}
		}
	}
	for _, e := range t.Events {
		switch e.Kind {
		case Exec:
			mark(e.Proc, e.Start, e.End, '#')
		case Steal:
			mark(e.Proc, e.Start, e.End, '*')
		}
	}
	fmt.Fprintf(w, "time %.0f..%.0f cycles, %d columns ('#' exec, '*' steal, '.' idle)\n",
		start, end, width)
	for p, row := range rows {
		fmt.Fprintf(w, "P%-3d %s\n", p, row)
	}
}

// Summary prints per-processor busy fractions and steal totals.
func (t *Trace) Summary(w io.Writer) {
	start, end := t.Span()
	busy := make([]float64, t.Procs)
	steals := make(map[int]int)
	for _, e := range t.Events {
		switch e.Kind {
		case Exec:
			if e.Proc >= 0 && e.Proc < t.Procs {
				busy[e.Proc] += e.End - e.Start
			}
		case Steal:
			steals[e.Victim]++
		}
	}
	total := end - start
	fmt.Fprintf(w, "span %.0f cycles\n", total)
	for p := 0; p < t.Procs; p++ {
		frac := 0.0
		if total > 0 {
			frac = busy[p] / total
		}
		fmt.Fprintf(w, "  P%-3d busy %5.1f%%  stolen-from %d times\n", p, 100*frac, steals[p])
	}
	if len(steals) > 0 {
		victims := make([]int, 0, len(steals))
		for v := range steals {
			victims = append(victims, v)
		}
		sort.Ints(victims)
		fmt.Fprintf(w, "  victims: %v\n", victims)
	}
}
