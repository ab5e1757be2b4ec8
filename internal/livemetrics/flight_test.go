package livemetrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// emitSub pushes one synthetic submission through an observer of p:
// steps phased loops of n iterations over two
// workers, each step carrying a mid-phase steal (worker 1 steals the
// top half of worker 0's range) plus a deliberately zero-duration
// exec chunk — the shapes that used to break Chrome trace export.
// Steps and clocks are 0-based per submission, exactly as a real
// engine reports them.
func emitSub(p *Plane, steps, n int) {
	o := p.Observer(2)
	for s := 0; s < steps; s++ {
		base := float64(s * 1000)
		o.Phase(telemetry.PhaseMark{Step: s, N: n, Start: base, End: base})
		half := n / 2
		// Worker 0 runs [0, half) natively, split into a normal chunk
		// and a zero-duration tail chunk.
		o.Chunk(telemetry.Prov{Step: s, Proc: 0, Owner: 0, Lo: 0, Hi: half - 1, Start: base + 10, End: base + 200})
		o.Chunk(telemetry.Prov{Step: s, Proc: 0, Owner: 0, Lo: half - 1, Hi: half, Start: base + 200, End: base + 200})
		// Worker 1 steals the rest from worker 0 mid-phase, over
		// [base+45, base+60]. Its record lands after worker 0's
		// despite its steal starting earlier — the out-of-order
		// arrival a concurrent engine produces.
		o.Chunk(telemetry.Prov{Step: s, Proc: 1, Owner: 0, Stolen: true, Lo: half, Hi: n, Start: base + 60, End: base + 400, QueueWait: 15})
		o.Phase(telemetry.PhaseMark{Step: s, N: n, Start: base, End: base + 410, Barrier: true})
	}
}

// eventsPerStep and recordsPerStep are what one emitSub step dumps
// and what it holds in the ring: the stolen chunk's one record dumps
// as its steal and its exec.
const eventsPerStep, recordsPerStep = 6, 5

// TestFlightDumpRebasing: submissions number steps from 0 and clocks
// from their own start; the dump must lay them end to end on one
// shared axis — steps strictly increasing across submission
// boundaries, clocks never jumping backwards.
func TestFlightDumpRebasing(t *testing.T) {
	p := New(Options{FlightEvents: 1024})
	for i := 0; i < 3; i++ {
		emitSub(p, 2, 64)
	}
	d := p.Recorder().Dump("test")
	if d.Submissions != 3 {
		t.Fatalf("dump sees %d submissions, want 3", d.Submissions)
	}
	if len(d.Events) != 3*2*eventsPerStep {
		t.Fatalf("dump has %d events, want %d", len(d.Events), 3*2*eventsPerStep)
	}
	// Steps 0..5: each submission's two steps shifted past the previous
	// submission's. Phase boundaries must arrive in step order.
	wantStep := 0
	for _, e := range d.Events {
		if e.Kind == telemetry.KindPhaseBegin {
			if e.Step != wantStep {
				t.Fatalf("phase-begin steps out of order: got %d, want %d", e.Step, wantStep)
			}
			wantStep++
		}
	}
	if wantStep != 6 {
		t.Fatalf("dump has %d phase-begins, want 6", wantStep)
	}
	// The rebased clock never runs backwards across submission starts.
	var lastBegin float64
	for _, e := range d.Events {
		if e.Kind == telemetry.KindPhaseBegin {
			if e.Start < lastBegin {
				t.Fatalf("rebased clock went backwards: begin at %g after %g", e.Start, lastBegin)
			}
			lastBegin = e.Start
		}
	}
	// Provenance shares the same axis: every record's step must have a
	// matching phase-begin in the event stream.
	begins := map[int]bool{}
	for _, e := range d.Events {
		if e.Kind == telemetry.KindPhaseBegin {
			begins[e.Step] = true
		}
	}
	for _, p := range d.Prov {
		if !begins[p.Step] {
			t.Fatalf("prov record on step %d has no rebased phase-begin", p.Step)
		}
	}
}

// TestFlightDumpInterleavedSubmissions: executors that share a plane
// run at once, so their submissions interleave in the ring. A's step 0
// runs, B begins, then A's step 1 overlaps B's step 0. The dump must
// still give each rebased step exactly one begin, and the consistent
// view must pass tracecheck (each iteration executed once per step).
func TestFlightDumpInterleavedSubmissions(t *testing.T) {
	const n = 8
	p := New(Options{FlightEvents: 1024})
	a, b := p.Observer(1), p.Observer(1)
	begin := func(o telemetry.Observer, s int) {
		o.Phase(telemetry.PhaseMark{Step: s, N: n, Start: float64(100 * s), End: float64(100 * s)})
	}
	finish := func(o telemetry.Observer, s int) {
		base := float64(100 * s)
		o.Chunk(telemetry.Prov{Step: s, Proc: 0, Owner: 0, Lo: 0, Hi: n, Start: base + 10, End: base + 90})
		o.Phase(telemetry.PhaseMark{Step: s, N: n, Start: base, End: base + 95, Barrier: true})
	}
	begin(a, 0)
	finish(a, 0)
	begin(b, 0)
	begin(a, 1)
	finish(b, 0)
	finish(a, 1)
	d := p.Recorder().Dump("interleaved")
	if d.Submissions != 2 {
		t.Fatalf("dump sees %d submissions, want 2", d.Submissions)
	}
	begins := map[int]int{}
	for _, e := range d.Events {
		if e.Kind == telemetry.KindPhaseBegin {
			begins[e.Step]++
		}
	}
	if len(begins) != 3 {
		t.Errorf("dump has begins on steps %v, want 3 distinct steps", begins)
	}
	for s, c := range begins {
		if c != 1 {
			t.Errorf("rebased step %d has %d phase-begins, want 1", s, c)
		}
	}
	evs, _ := d.Consistent()
	if err := telemetry.Check(evs).Err(); err != nil {
		t.Errorf("interleaved dump fails tracecheck: %v", err)
	}
}

// TestFlightConsistentSurvivesEviction is the mid-step ring
// regression test: the ring is sized so eviction cuts an old
// submission mid-step — stranding chunk records whose phase-begin is
// gone — and the Consistent view must still pass the full tracecheck
// invariant suite (coverage, steal legality, event sanity).
func TestFlightConsistentSurvivesEviction(t *testing.T) {
	// 4 submissions × 3 steps × recordsPerStep = 60 records; a 37-slot
	// ring holds ~2.5 submissions and the cut lands mid-submission,
	// and (with recordsPerStep not dividing 37) mid-step.
	p := New(Options{FlightEvents: 37})
	for i := 0; i < 4; i++ {
		emitSub(p, 3, 64)
	}
	d := p.Recorder().Dump("evicted")
	if d.DroppedEvents == 0 || d.DroppedProv == 0 {
		t.Fatalf("test needs eviction to bite (dropped events %d, prov %d)", d.DroppedEvents, d.DroppedProv)
	}
	evs, pvs := d.Consistent()
	if len(evs) == 0 {
		t.Fatal("Consistent returned no events despite surviving full steps")
	}
	if len(evs)%eventsPerStep != 0 {
		t.Errorf("Consistent kept %d events, not a whole number of steps", len(evs))
	}
	if err := telemetry.Check(evs).Err(); err != nil {
		t.Errorf("Consistent events fail tracecheck: %v", err)
	}
	// Surviving prov records must only describe surviving steps.
	kept := map[int]bool{}
	for _, e := range evs {
		kept[e.Step] = true
	}
	if len(pvs) == 0 {
		t.Error("Consistent returned no provenance for surviving steps")
	}
	for _, p := range pvs {
		if !kept[p.Step] {
			t.Errorf("prov record for evicted step %d survived Consistent", p.Step)
		}
	}
	// The raw (inconsistent) dump still exports as a Chrome trace: the
	// zero-duration chunks and out-of-order steal events exercise the
	// exporter's hardening, and the half-evicted step must not break it.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, d.Events, telemetry.ChromeOptions{Label: "flight", Procs: 2}); err != nil {
		t.Fatalf("WriteChromeTrace on raw dump: %v", err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace output is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}

// TestFlightAnomalyLatestWins: NoteAnomaly freezes a dump; a later
// anomaly replaces it; the frozen dump is immune to later traffic.
func TestFlightAnomalyLatestWins(t *testing.T) {
	p := New(Options{FlightEvents: 1024})
	r := p.Recorder()
	emitSub(p, 1, 32)
	r.NoteAnomaly("panic: first")
	first := r.Anomaly()
	if first == nil || first.Reason != "panic: first" {
		t.Fatalf("anomaly = %+v, want reason %q", first, "panic: first")
	}
	nEvents := len(first.Events)
	emitSub(p, 1, 32)
	if got := len(r.Anomaly().Events); got != nEvents {
		t.Errorf("frozen anomaly grew from %d to %d events after new traffic", nEvents, got)
	}
	r.NoteAnomaly("cancelled: second")
	if got := r.Anomaly().Reason; got != "cancelled: second" {
		t.Errorf("anomaly reason = %q, want latest", got)
	}
}

// TestFlightWrapKeepsProvPerExec: once the ring wraps at its default
// size, the Consistent view still holds exactly one Prov per exec
// event, and each Prov is its exec event's record — so forensics on a
// wrapped ring sees every surviving chunk's time, not idle.
func TestFlightWrapKeepsProvPerExec(t *testing.T) {
	p := New(Options{})
	o := p.Observer(4)
	const steps, chunks = 600, 8
	for s := 0; s < steps; s++ {
		base := float64(s * 100)
		o.Phase(telemetry.PhaseMark{Step: s, N: chunks, Start: base, End: base})
		for c := 0; c < chunks; c++ {
			pv := telemetry.Prov{Step: s, Proc: c % 4, Owner: c % 4, Lo: c, Hi: c + 1,
				Start: base + float64(10*c+2), End: base + float64(10*c+10)}
			if c == chunks-1 { // worker 3 steals from worker 0
				pv.Owner, pv.Stolen, pv.QueueWait = 0, true, 1
			}
			pv.Compute = pv.End - pv.Start
			o.Chunk(pv)
		}
		o.Phase(telemetry.PhaseMark{Step: s, N: chunks, Start: base, End: base + 90, Barrier: true})
	}
	d := p.Recorder().Dump("wrap")
	if d.DroppedEvents == 0 || d.DroppedProv == 0 {
		t.Fatalf("ring did not wrap (dropped events %d, prov %d)", d.DroppedEvents, d.DroppedProv)
	}
	evs, pvs := d.Consistent()
	var execs []telemetry.Event
	for _, e := range evs {
		if e.Kind == telemetry.KindExec {
			execs = append(execs, e)
		}
	}
	if len(execs) == 0 {
		t.Fatal("wrapped ring kept no exec events")
	}
	if len(pvs) != len(execs) {
		t.Fatalf("Consistent kept %d exec events but %d Prov records", len(execs), len(pvs))
	}
	for i, e := range execs {
		if got := pvs[i].ExecEvent(); got != e {
			t.Fatalf("exec event %d is %+v, its Prov says %+v", i, e, got)
		}
	}
	if err := telemetry.Check(evs).Err(); err != nil {
		t.Errorf("wrapped Consistent events fail tracecheck: %v", err)
	}
}
