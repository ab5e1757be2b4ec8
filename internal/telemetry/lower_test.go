package telemetry

import (
	"reflect"
	"testing"
)

// TestLowerDerivesDispatchEvents: one phase (begin and barrier marks)
// around one chunk record, per case. A record adds an event before its
// exec only for a steal or a notable (over 1 µs) queue wait.
func TestLowerDerivesDispatchEvents(t *testing.T) {
	marks := []PhaseMark{
		{Step: 0, N: 8, Start: 0, End: 0},
		{Step: 0, N: 8, Start: 0, End: 10000, Barrier: true},
	}
	begin := Event{Kind: KindPhaseBegin, Proc: -1, Victim: -1, Hi: 8}
	end := Event{Kind: KindPhaseEnd, Proc: -1, Victim: -1, Start: 10000, End: 10000}
	for _, tc := range []struct {
		name string
		rec  Prov
		// dispatch is the derived event between begin and exec, if any.
		dispatch *Event
	}{
		{name: "local", rec: Prov{Proc: 1, Owner: 1, Lo: 0, Hi: 8, Start: 5000, End: 9000}},
		{name: "stolen", rec: Prov{Proc: 1, Owner: 0, Stolen: true, Lo: 4, Hi: 8, Start: 5000, End: 9000, QueueWait: 300},
			dispatch: &Event{Kind: KindSteal, Proc: 1, Victim: 0, Lo: 4, Hi: 8, Start: 4700, End: 5000}},
		{name: "central 2µs wait", rec: Prov{Proc: 1, Owner: -1, Lo: 0, Hi: 8, Start: 5000, End: 9000, QueueWait: 2000},
			dispatch: &Event{Kind: KindQueueWait, Proc: 1, Victim: -1, Start: 3000, End: 5000}},
		{name: "central 0.5µs wait", rec: Prov{Proc: 1, Owner: -1, Lo: 0, Hi: 8, Start: 5000, End: 9000, QueueWait: 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := []Prov{tc.rec}
			evs, pvs := Lower(marks, []Prov{tc.rec})
			want := []Event{begin}
			if tc.dispatch != nil {
				want = append(want, *tc.dispatch)
			}
			want = append(want, tc.rec.ExecEvent(), end)
			if !reflect.DeepEqual(evs, want) {
				t.Errorf("events:\n got %+v\nwant %+v", evs, want)
			}
			if !reflect.DeepEqual(pvs, in) {
				t.Errorf("records %+v, want %+v unchanged", pvs, in)
			}
		})
	}
}

// TestLowerIgnoresArrivalOrder: the same records in two arrival orders
// lower to the same events and records, sorted by (step, start) with a
// phase's begin first and its end last.
func TestLowerIgnoresArrivalOrder(t *testing.T) {
	marks := []PhaseMark{
		{Step: 0, N: 4, Start: 0, End: 0},
		{Step: 0, N: 4, Start: 0, End: 40, Barrier: true},
		{Step: 1, N: 4, Start: 40, End: 40},
		{Step: 1, N: 4, Start: 40, End: 80, Barrier: true},
	}
	recs := []Prov{
		{Step: 0, Proc: 0, Owner: 0, Lo: 0, Hi: 2, Start: 0, End: 20},
		{Step: 0, Proc: 1, Owner: 1, Lo: 2, Hi: 4, Start: 0, End: 40},
		{Step: 1, Proc: 1, Owner: 0, Stolen: true, Lo: 0, Hi: 1, Start: 45, End: 80, QueueWait: 5},
		{Step: 1, Proc: 0, Owner: 0, Lo: 1, Hi: 4, Start: 40, End: 70},
	}
	rev := []Prov{recs[3], recs[1], recs[2], recs[0]}
	evs, pvs := Lower(marks, recs)
	evs2, pvs2 := Lower(marks, rev)
	if !reflect.DeepEqual(evs, evs2) || !reflect.DeepEqual(pvs, pvs2) {
		t.Fatalf("arrival order changed the lowering:\n%+v\n%+v", evs, evs2)
	}
	var kinds []Kind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	want := []Kind{KindPhaseBegin, KindExec, KindExec, KindPhaseEnd,
		KindPhaseBegin, KindSteal, KindExec, KindExec, KindPhaseEnd}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("event kinds %v, want %v", kinds, want)
	}
	if pvs[0].Proc != 0 || pvs[1].Proc != 1 || pvs[2].Proc != 0 || pvs[3].Proc != 1 {
		t.Errorf("records not in (step, start, proc) order: %+v", pvs)
	}
}
