package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// The text chart below draws the exec and steal events of one
// simulated run; every other event kind (phase marks, queue waits,
// cache flushes) is skipped, so it can be handed a whole stream.

// charted reports whether e is drawn: an exec or a steal.
func charted(e telemetry.Event) bool {
	return e.Kind == telemetry.KindExec || e.Kind == telemetry.KindSteal
}

// span returns the earliest start and latest end across the charted
// events, or 0, 0 when there are none.
func span(events []telemetry.Event) (start, end float64) {
	seen := false
	for _, e := range events {
		if !charted(e) {
			continue
		}
		if !seen || e.Start < start {
			start = e.Start
		}
		if !seen || e.End > end {
			end = e.End
		}
		seen = true
	}
	return start, end
}

// gantt renders a text chart: one row per processor, time bucketed
// into width columns; '#' marks executing, '*' marks a bucket
// containing a steal, '.' idle.
func gantt(w io.Writer, events []telemetry.Event, procs, width int) {
	if width < 10 {
		width = 10
	}
	start, end := span(events)
	if end <= start {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	scale := float64(width) / (end - start)
	rows := make([][]byte, procs)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(".", width))
	}
	mark := func(p int, from, to float64, ch byte) {
		if p < 0 || p >= procs {
			return
		}
		lo := int((from - start) * scale)
		hi := int((to - start) * scale)
		// Clamp both ends into [0, width): a zero-duration event at the
		// span's end maps to column width.
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
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindExec:
			mark(e.Proc, e.Start, e.End, '#')
		case telemetry.KindSteal:
			mark(e.Proc, e.Start, e.End, '*')
		}
	}
	fmt.Fprintf(w, "time %.0f..%.0f cycles, %d columns ('#' exec, '*' steal, '.' idle)\n",
		start, end, width)
	for p, row := range rows {
		fmt.Fprintf(w, "P%-3d %s\n", p, row)
	}
}

// summary prints per-processor busy fractions and steal totals.
func summary(w io.Writer, events []telemetry.Event, procs int) {
	start, end := span(events)
	busy := make([]float64, procs)
	steals := make(map[int]int)
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindExec:
			if e.Proc >= 0 && e.Proc < procs {
				busy[e.Proc] += e.End - e.Start
			}
		case telemetry.KindSteal:
			steals[e.Victim]++
		}
	}
	total := end - start
	fmt.Fprintf(w, "span %.0f cycles\n", total)
	for p := 0; p < procs; p++ {
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
