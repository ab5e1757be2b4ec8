package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func execEvent(proc, lo, hi int, start, end float64) telemetry.Event {
	return telemetry.Event{Kind: telemetry.KindExec, Proc: proc, Victim: -1, Lo: lo, Hi: hi, Start: start, End: end}
}

func stealEvent(proc, victim, lo, hi int, start, end float64) telemetry.Event {
	return telemetry.Event{Kind: telemetry.KindSteal, Proc: proc, Victim: victim, Lo: lo, Hi: hi, Start: start, End: end}
}

// mkEvents is a two-processor run: P1 steals [5,8) from P0 and runs it.
func mkEvents() []telemetry.Event {
	return []telemetry.Event{
		execEvent(0, 0, 5, 0, 50),
		stealEvent(1, 0, 5, 8, 10, 20),
		execEvent(1, 5, 8, 20, 60),
	}
}

func TestSpan(t *testing.T) {
	s, e := span(mkEvents())
	if s != 0 || e != 60 {
		t.Errorf("span [%v,%v]", s, e)
	}
	s, e = span(nil)
	if s != 0 || e != 0 {
		t.Error("empty span")
	}
}

// TestSpanSingleEvent: one charted event defines both ends of the
// span; phase marks and queue waits around it do not count.
func TestSpanSingleEvent(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.KindPhaseBegin, Proc: -1, Victim: -1, Hi: 3, Start: 0, End: 0},
		{Kind: telemetry.KindQueueWait, Proc: 0, Victim: -1, Start: 10, End: 40},
		execEvent(0, 0, 3, 42, 99),
		{Kind: telemetry.KindPhaseEnd, Proc: -1, Victim: -1, Start: 120, End: 120},
	}
	s, e := span(events)
	if s != 42 || e != 99 {
		t.Errorf("span [%v,%v], want [42,99]", s, e)
	}
}

func TestGantt(t *testing.T) {
	var b strings.Builder
	gantt(&b, mkEvents(), 2, 40)
	out := b.String()
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "*") {
		t.Errorf("missing marks:\n%s", out)
	}
	b.Reset()
	gantt(&b, nil, 1, 40)
	if !strings.Contains(b.String(), "empty trace") {
		t.Error("empty trace not handled")
	}
}

// TestGanttZeroDurationAtSpanEnd is the regression test for the
// column-clamp bug: a zero-duration event exactly at the span's end
// used to index column `width`, one past the row buffer.
func TestGanttZeroDurationAtSpanEnd(t *testing.T) {
	events := []telemetry.Event{
		execEvent(0, 0, 4, 0, 100),
		stealEvent(1, 0, 4, 5, 100, 100),
	}
	var b strings.Builder
	gantt(&b, events, 2, 40) // must not panic
	if !strings.Contains(b.String(), "*") {
		t.Errorf("zero-duration steal not drawn:\n%s", b.String())
	}
}

// TestGanttClampsBothEnds: a zero-duration steal at the span's start
// stays in column 0, and an out-of-range processor is skipped instead
// of indexing past the rows.
func TestGanttClampsBothEnds(t *testing.T) {
	events := []telemetry.Event{
		execEvent(0, 0, 1, 50, 100),
		stealEvent(0, 1, 0, 1, 50, 50),
		execEvent(7, 1, 2, 60, 70),
	}
	var b strings.Builder
	gantt(&b, events, 1, 10)
	out := b.String()
	if !strings.Contains(out, "P0   *#########") {
		t.Errorf("gantt:\n%s", out)
	}
	if strings.Contains(out, "P7") {
		t.Errorf("out-of-range processor drawn:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	var b strings.Builder
	summary(&b, mkEvents(), 2)
	out := b.String()
	if !strings.Contains(out, "P0") || !strings.Contains(out, "stolen-from 1") {
		t.Errorf("summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "  victims: [0]\n") {
		t.Errorf("summary lacks the victims line:\n%s", out)
	}
}

// TestSummaryEmptyTrace: a run with no events renders a zero-span
// summary without dividing by zero, and names no victims.
func TestSummaryEmptyTrace(t *testing.T) {
	var b strings.Builder
	summary(&b, nil, 2)
	out := b.String()
	if !strings.Contains(out, "span 0 cycles") {
		t.Errorf("empty summary:\n%s", out)
	}
	if !strings.Contains(out, "P0") || !strings.Contains(out, "busy   0.0%") {
		t.Errorf("empty summary rows:\n%s", out)
	}
	if strings.Contains(out, "victims") {
		t.Errorf("empty summary names victims:\n%s", out)
	}
}

// TestTraceChart: -trace appends the chart and summary of the last
// algorithm at the largest processor count to the sweep table.
func TestTraceChart(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-kernel", "gauss", "-n", "32", "-procs", "2,4", "-algos", "gss,afs", "-trace"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"completion time", "execution trace: AFS, 4 processors", "P3   ", "victims: ["} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestExportRun: -trace-out, -metrics-out and -check write both files
// from one instrumented run and report a clean tracecheck.
func TestExportRun(t *testing.T) {
	dir := t.TempDir()
	traceOut, metricsOut := filepath.Join(dir, "trace.json"), filepath.Join(dir, "series.csv")
	var stdout, stderr strings.Builder
	err := run([]string{"-machine", "iris", "-kernel", "gauss", "-n", "32", "-procs", "4", "-algos", "afs",
		"-trace-out", traceOut, "-metrics-out", metricsOut, "-check"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	log := stderr.String()
	for _, want := range []string{"wrote Chrome trace", "wrote metrics time series", "tracecheck: OK", "AFS on 4 processors"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr lacks %q:\n%s", want, log)
		}
	}
	if strings.Contains(stdout.String(), "execution trace") {
		t.Error("chart drawn without -trace")
	}
	trace, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"traceEvents"`) || !strings.Contains(string(trace), "(simulated)") {
		t.Errorf("trace file is not a labelled Chrome trace: %.200s", trace)
	}
	series, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(series), "step,") {
		t.Errorf("series CSV header: %.80s", series)
	}
}

// TestBadInputs: an unknown name or an empty processor count fails
// with an error that names the offending flag.
func TestBadInputs(t *testing.T) {
	cases := []struct {
		args     []string
		wantFlag string
	}{
		{[]string{"-kernel", "nope"}, "-kernel"},
		{[]string{"-machine", "cray"}, "-machine"},
		{[]string{"-algos", "afs,warp-drive"}, "-algos"},
		{[]string{"-procs", "0"}, "-procs"},
		{[]string{"-csv", "-trace"}, "-trace"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		err := run(append(c.args, "-n", "16"), &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%q): no error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.wantFlag) {
			t.Errorf("run(%q) = %q, should name %s", c.args, err, c.wantFlag)
		}
		if stdout.Len() > 0 {
			t.Errorf("run(%q) printed a table:\n%s", c.args, stdout.String())
		}
	}
}
