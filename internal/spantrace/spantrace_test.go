package spantrace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

// liveTrace runs one phased AFS submission on a real pool with tracing
// attached and returns its sealed trace.
func liveTrace(t *testing.T, procs, phases, n int) *spantrace.Trace {
	t.Helper()
	px, err := pool.New(procs)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	tracer := spantrace.NewTracer(spantrace.Options{})
	px.SetTracer(tracer)
	_, err = px.SubmitPhases(nil, core.Config{Spec: sched.SpecAFS()}, phases,
		func(int) int { return n },
		func(ph, i int) { _ = ph * i })
	if err != nil {
		t.Fatal(err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	return traces[0]
}

func TestLiveTraceStructure(t *testing.T) {
	const procs, phases, n = 4, 3, 1024
	tr := liveTrace(t, procs, phases, n)

	if tr.Outcome != "ok" || tr.Procs != procs || tr.Phases != phases {
		t.Fatalf("trace header: %+v", tr.Summary())
	}
	if tr.Spans[0].Kind != spantrace.KindSubmission || tr.Spans[0].ID != 1 {
		t.Fatalf("Spans[0] is not the root: %+v", tr.Spans[0])
	}
	if tr.DurationNS <= 0 {
		t.Fatalf("non-positive duration %v", tr.DurationNS)
	}

	// Every chunk parents to its phase span, lies inside the phase
	// window, and per phase the chunk ranges tile [0, n) exactly.
	covered := make(map[int][]bool)
	for ph := 0; ph < phases; ph++ {
		covered[ph] = make([]bool, n)
	}
	for _, s := range tr.Spans {
		switch s.Kind {
		case spantrace.KindChunk:
			phase := tr.Span(s.Parent)
			if phase == nil || phase.Kind != spantrace.KindPhase || phase.Phase != s.Phase {
				t.Fatalf("chunk %d has bad parent: %+v", s.ID, s)
			}
			if s.Start < phase.Start || s.End > phase.End {
				t.Fatalf("chunk %d outside its phase window: chunk [%v,%v] phase [%v,%v]",
					s.ID, s.Start, s.End, phase.Start, phase.End)
			}
			for i := s.Lo; i < s.Hi; i++ {
				if covered[s.Phase][i] {
					t.Fatalf("iteration %d of phase %d covered twice", i, s.Phase)
				}
				covered[s.Phase][i] = true
			}
			if s.Stolen && s.StealsFrom != 0 {
				steal := tr.Span(s.StealsFrom)
				if steal == nil || steal.Kind != spantrace.KindSteal {
					t.Fatalf("chunk %d steals_from %d is not a steal span", s.ID, s.StealsFrom)
				}
				if steal.Proc != s.Proc {
					t.Fatalf("steals-from edge crosses goroutines: chunk proc %d, steal proc %d",
						s.Proc, steal.Proc)
				}
				if steal.Lo != s.Lo || steal.Hi != s.Hi {
					t.Fatalf("steals-from range mismatch: chunk [%d,%d) steal [%d,%d)",
						s.Lo, s.Hi, steal.Lo, steal.Hi)
				}
			}
		case spantrace.KindSteal:
			if s.Owner < 0 || s.Owner >= procs || s.Owner == s.Proc {
				t.Fatalf("steal span with bad victim: %+v", s)
			}
		}
	}
	for ph := 0; ph < phases; ph++ {
		for i, ok := range covered[ph] {
			if !ok {
				t.Fatalf("iteration %d of phase %d not covered by any chunk span", i, ph)
			}
		}
	}

	// Presentation order is (Start, ID) after the root.
	for i := 2; i < len(tr.Spans); i++ {
		a, b := tr.Spans[i-1], tr.Spans[i]
		if a.Start > b.Start || (a.Start == b.Start && a.ID >= b.ID) {
			t.Fatalf("spans out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestForensicsRoundTrip(t *testing.T) {
	tr := liveTrace(t, 4, 2, 2048)

	var buf bytes.Buffer
	if err := tr.WriteForensics(&buf, "real", "ns"); err != nil {
		t.Fatal(err)
	}
	ft, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("forensics cannot read the span-trace export: %v", err)
	}
	a, err := forensics.Analyze(ft)
	if err != nil {
		t.Fatalf("forensics cannot analyze the span-trace export: %v", err)
	}
	if a.Meta.Procs != 4 || a.Steps != 2 {
		t.Fatalf("analysis header: procs=%d steps=%d", a.Meta.Procs, a.Steps)
	}
	// The attribution is a complete decomposition: every processor's
	// buckets sum to the common span, and the makespan matches the
	// trace's duration (both are the latest telemetry-clock timestamp).
	for _, pa := range a.Procs {
		sum := pa.Buckets.Compute + pa.Buckets.CacheReload +
			pa.Buckets.Interconnect + pa.Buckets.QueueWait + pa.Buckets.Idle
		if math.Abs(sum-pa.Span) > 1e-6*math.Max(1, pa.Span) {
			t.Fatalf("proc %d buckets sum to %v, span is %v", pa.Proc, sum, pa.Span)
		}
	}
	if math.Abs(a.Makespan-tr.DurationNS) > 1e-6*tr.DurationNS {
		t.Fatalf("makespan %v != trace duration %v", a.Makespan, tr.DurationNS)
	}
	// The event stream round-trips through the repo's invariant checker.
	if rep := telemetry.Check(ft.Events); !rep.OK() {
		t.Fatalf("exported stream fails tracecheck: %v", rep.Err())
	}
}

// simTrace runs one seeded simulation with a live span collection
// attached as its observer and returns the sealed tree.
func simTrace(t *testing.T, seed uint64) *spantrace.Trace {
	t.Helper()
	m := machine.Iris()
	prog := sim.Program{
		Name:  "det",
		Steps: 3,
		Step: func(int) sim.ParLoop {
			return sim.ParLoop{N: 128, Cost: func(i int) float64 { return 100 + float64(i%7)*30 }}
		},
	}
	active := spantrace.NewTracer(spantrace.Options{}).StartSubmission(spantrace.SubmissionInfo{
		Label: "det", Scheduler: "AFS", Procs: 4, Phases: 3,
	})
	if _, err := sim.RunOpts(m, 4, sched.SpecAFS(), prog, sim.Options{Seed: seed, Observer: active}); err != nil {
		active.Abandon()
		t.Fatal(err)
	}
	return active.End("ok")
}

// TestSimTraceDeterminism locks the simulator-substrate guarantee: at
// a fixed seed, two runs produce bit-identical span trees.
func TestSimTraceDeterminism(t *testing.T) {
	a := simTrace(t, 42)
	b := simTrace(t, 42)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed, different span trees:\n%s\n---\n%s", aj, bj)
	}
	if a.Chunks() == 0 {
		t.Fatal("sim trace has no chunk spans")
	}
	c := simTrace(t, 43)
	cj, _ := json.Marshal(c)
	if bytes.Equal(aj, cj) {
		t.Fatal("different seeds produced identical span trees (jitter not applied?)")
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for _, k := range []spantrace.Kind{spantrace.KindSubmission, spantrace.KindPhase,
		spantrace.KindChunk, spantrace.KindSteal} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back spantrace.Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("kind %v round-trips to %v (%v)", k, back, err)
		}
	}
	var k spantrace.Kind
	if err := json.Unmarshal([]byte(`"warp"`), &k); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestSpanCapDrops(t *testing.T) {
	tracer := spantrace.NewTracer(spantrace.Options{MaxSpans: 8})
	a := tracer.StartSubmission(spantrace.SubmissionInfo{Procs: 2, Phases: 1})
	for i := 0; i < 100; i++ {
		a.Chunk(telemetry.Prov{Proc: i % 2, Owner: i % 2, Lo: i, Hi: i + 1, Start: float64(i), End: float64(i + 1)})
	}
	a.Phase(telemetry.PhaseMark{N: 100, End: 100, Barrier: true})
	tr := a.End("ok")
	if tr.Dropped == 0 {
		t.Fatal("cap exceeded without drops")
	}
	// 8 spans split across 2 workers: 4 each, plus root and phase.
	if got := len(tr.Spans); got != 1+1+8 {
		t.Fatalf("kept %d spans, want 10", got)
	}
}

func TestStoreEviction(t *testing.T) {
	tracer := spantrace.NewTracer(spantrace.Options{Store: 2})
	var ids []uint64
	for i := 0; i < 3; i++ {
		a := tracer.StartSubmission(spantrace.SubmissionInfo{Procs: 1, Phases: 1})
		a.Phase(telemetry.PhaseMark{N: 1, End: 1, Barrier: true})
		ids = append(ids, a.End("ok").TraceID)
	}
	if tracer.Get(ids[0]) != nil {
		t.Fatal("oldest trace not evicted")
	}
	if tracer.Get(ids[1]) == nil || tracer.Get(ids[2]) == nil {
		t.Fatal("recent traces evicted")
	}
	if tracer.Evicted() != 1 {
		t.Fatalf("Evicted() = %d, want 1", tracer.Evicted())
	}
	got := tracer.Traces()
	if len(got) != 2 || got[0].TraceID != ids[2] || got[1].TraceID != ids[1] {
		t.Fatalf("Traces() order wrong: %v", []uint64{got[0].TraceID, got[1].TraceID})
	}
}

// TestPinOutlivesEviction: a pinned trace stays resolvable after the
// ring evicts it, Traces() lists only the ring, and Unpin then drops
// it; unpinning a trace still in the ring leaves it there.
func TestPinOutlivesEviction(t *testing.T) {
	tracer := spantrace.NewTracer(spantrace.Options{Store: 2})
	end := func() uint64 {
		a := tracer.StartSubmission(spantrace.SubmissionInfo{Procs: 1, Phases: 1})
		a.Phase(telemetry.PhaseMark{N: 1, End: 1, Barrier: true})
		return a.End("ok").TraceID
	}
	pinned := end()
	tracer.Pin(pinned)
	for i := 0; i < 3; i++ {
		end()
	}
	if tracer.Get(pinned) == nil {
		t.Fatal("pinned trace evicted")
	}
	if n := len(tracer.Traces()); n != 2 {
		t.Fatalf("Traces() lists %d traces, want the ring's 2", n)
	}
	if tracer.Evicted() != 1 {
		t.Fatalf("Evicted() = %d, want 1 (the pinned trace is still held)", tracer.Evicted())
	}
	tracer.Unpin(pinned)
	if tracer.Get(pinned) != nil {
		t.Fatal("unpinned evicted trace still resolves")
	}
	if tracer.Evicted() != 2 {
		t.Fatalf("Evicted() = %d after Unpin, want 2", tracer.Evicted())
	}

	recent := end()
	tracer.Pin(recent)
	tracer.Unpin(recent)
	if tracer.Get(recent) == nil {
		t.Fatal("Unpin dropped a trace the ring still holds")
	}
	var none *spantrace.Tracer
	none.Pin(1) // nil-safe, like the plane's detached tracer
	none.Unpin(1)
}

func TestAbandonStoresNothing(t *testing.T) {
	tracer := spantrace.NewTracer(spantrace.Options{})
	a := tracer.StartSubmission(spantrace.SubmissionInfo{Procs: 1, Phases: 1})
	a.Abandon()
	if len(tracer.Traces()) != 0 {
		t.Fatal("abandoned collection stored a trace")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	tracer := spantrace.NewTracer(spantrace.Options{})
	h := spantrace.Handler(tracer)

	// Empty tracer: /traces serves an empty JSON list, not null.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	if body := strings.TrimSpace(rec.Body.String()); body != "[]" {
		t.Fatalf("empty trace list = %q, want []", body)
	}

	a := tracer.StartSubmission(spantrace.SubmissionInfo{Scheduler: "AFS", Procs: 1, Phases: 1})
	a.Chunk(telemetry.Prov{Hi: 8, End: 10})
	a.Phase(telemetry.PhaseMark{N: 8, End: 10, Barrier: true})
	id := a.End("ok").TraceID

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	var summaries []spantrace.TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &summaries); err != nil || len(summaries) != 1 {
		t.Fatalf("trace list: %v %v", err, rec.Body.String())
	}
	if summaries[0].TraceID != id || summaries[0].Chunks != 1 {
		t.Fatalf("summary: %+v", summaries[0])
	}

	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/trace?id=" + jsonNum(id), 200},
		{"/trace?id=" + jsonNum(id) + "&format=trace", 200},
		{"/trace?id=" + jsonNum(id) + "&format=gantt", 400},
		{"/trace?id=999999", 404},
		{"/trace?id=bogus", 400},
		{"/trace", 400},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.url, rec.Code, tc.code)
		}
	}

	// format=trace is readable by forensics.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?id="+jsonNum(id)+"&format=trace", nil))
	if _, err := telemetry.ReadTrace(rec.Body); err != nil {
		t.Fatalf("format=trace unreadable by forensics: %v", err)
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
