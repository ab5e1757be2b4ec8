package telemetry

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
)

// TestLowerDerivesDispatchEvents: one phase (begin and barrier marks)
// around one chunk record, per case. A record adds an event before its
// exec only for a steal or a queue wait over the unit's noise floor:
// 1 µs in nanoseconds, none in cycles.
func TestLowerDerivesDispatchEvents(t *testing.T) {
	marks := []PhaseMark{
		{Step: 0, N: 8, Start: 0, End: 0},
		{Step: 0, N: 8, Start: 0, End: 10000, Barrier: true},
	}
	begin := Event{Kind: KindPhaseBegin, Proc: -1, Victim: -1, Hi: 8}
	end := Event{Kind: KindPhaseEnd, Proc: -1, Victim: -1, Start: 10000, End: 10000}
	for _, tc := range []struct {
		name string
		unit string // "ns" when empty
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
		{name: "central 500-cycle wait", unit: "cycles", rec: Prov{Proc: 1, Owner: -1, Lo: 0, Hi: 8, Start: 5000, End: 9000, QueueWait: 500},
			dispatch: &Event{Kind: KindQueueWait, Proc: 1, Victim: -1, Start: 4500, End: 5000}},
		{name: "central no wait in cycles", unit: "cycles", rec: Prov{Proc: 1, Owner: -1, Lo: 0, Hi: 8, Start: 5000, End: 9000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			unit := cmp.Or(tc.unit, "ns")
			in := []Prov{tc.rec}
			evs, pvs := Lower(marks, []Prov{tc.rec}, unit)
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
	evs, pvs := Lower(marks, recs, "ns")
	evs2, pvs2 := Lower(marks, rev, "ns")
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

// TestObserveEventsStreamsTheLowering: the event stream ObserveEvents
// writes as a run reports itself holds the events Lower derives from
// the same marks and records, in both units — a flush mark's cache
// flush included — only in arrival order.
func TestObserveEventsStreamsTheLowering(t *testing.T) {
	marks := []PhaseMark{
		{Step: 0, N: 4, Start: 0, End: 0},
		{Step: 0, N: 4, Start: 0, End: 4000, Barrier: true},
		{Step: 1, N: 4, Start: 4000, End: 4000, Flush: true},
		{Step: 1, N: 4, Start: 4000, End: 9000, Barrier: true},
	}
	recs := []Prov{
		{Step: 0, Proc: 0, Owner: -1, Lo: 0, Hi: 2, Start: 300, End: 2000, QueueWait: 300},
		{Step: 0, Proc: 1, Owner: -1, Lo: 2, Hi: 4, Start: 1500, End: 4000, QueueWait: 1500},
		{Step: 1, Proc: 1, Owner: 0, Stolen: true, Lo: 0, Hi: 1, Start: 4500, End: 9000, QueueWait: 500},
		{Step: 1, Proc: 0, Owner: 0, Lo: 1, Hi: 4, Start: 4000, End: 8000},
	}
	for _, unit := range []string{"ns", "cycles"} {
		log := NewLog[Event]()
		obs := ObserveEvents(log, unit)
		obs.Phase(marks[0])
		obs.Chunk(recs[0])
		obs.Chunk(recs[1])
		obs.Phase(marks[1])
		obs.Phase(marks[2])
		obs.Chunk(recs[3])
		obs.Chunk(recs[2])
		obs.Phase(marks[3])
		streamed := log.Records()
		lowered, _ := Lower(marks, slices.Clone(recs), unit)
		slices.SortFunc(streamed, compareEvents)
		if !reflect.DeepEqual(streamed, lowered) {
			t.Errorf("%s: streamed %+v,\nlowered %+v", unit, streamed, lowered)
		}
		var flushes, waits int
		for _, e := range lowered {
			switch e.Kind {
			case KindCacheFlush:
				flushes++
			case KindQueueWait:
				waits++
			}
		}
		if wantWaits := map[string]int{"ns": 1, "cycles": 2}[unit]; flushes != 1 || waits != wantWaits {
			t.Errorf("%s: %d flushes and %d queue waits, want 1 and %d", unit, flushes, waits, wantWaits)
		}
	}
}
