package forensics

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
)

func capture(t *testing.T, algo string) *telemetry.TraceFile {
	t.Helper()
	tr, _, err := CaptureSim(CaptureSpec{
		Machine: "symmetry", Kernel: "sor", Algo: algo,
		Procs: 8, N: 64, Phases: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// captureSkewed produces a steal-heavy AFS trace (skewed per-iteration
// costs force high-indexed owners to finish early and steal).
func captureSkewed(t *testing.T) *telemetry.TraceFile {
	t.Helper()
	tr, _, err := CaptureSim(CaptureSpec{
		Machine: "symmetry", Kernel: "tc-skew", Algo: "afs",
		Procs: 8, N: 128, Phases: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCaptureNamesBadFlag: each bad name fails with an error that
// starts with the loopdoctor capture flag that set it.
func TestCaptureNamesBadFlag(t *testing.T) {
	ok := CaptureSpec{Machine: "symmetry", Kernel: "sor", Algo: "afs", Procs: 2, N: 16, Phases: 1}
	for _, tc := range []struct {
		flag string
		edit func(*CaptureSpec)
	}{
		{"-machine", func(s *CaptureSpec) { s.Machine = "cray" }},
		{"-kernel", func(s *CaptureSpec) { s.Kernel = "nope" }},
		{"-algo", func(s *CaptureSpec) { s.Algo = "warp-drive" }},
	} {
		spec := ok
		tc.edit(&spec)
		if _, _, err := CaptureSim(spec); err == nil || !strings.HasPrefix(err.Error(), tc.flag+": ") {
			t.Errorf("CaptureSim with a bad %s = %v, want an error naming %s", tc.flag, err, tc.flag)
		}
	}
	if _, _, err := CaptureSim(ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestBucketsSumToSpan is the acceptance check: every processor's
// bucket totals sum exactly to its measured span, with no clamped
// (negative) idle hiding an accounting error.
func TestBucketsSumToSpan(t *testing.T) {
	for _, algo := range []string{"afs", "gss", "static", "factoring"} {
		tr := capture(t, algo)
		a, err := Analyze(tr)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if a.Span <= 0 {
			t.Fatalf("%s: non-positive span %g", algo, a.Span)
		}
		const relTol = 1e-9
		for _, p := range a.Procs {
			sum := p.Buckets.Sum()
			if math.Abs(sum-p.Span) > relTol*p.Span {
				t.Errorf("%s: proc %d buckets sum to %g, span is %g", algo, p.Proc, sum, p.Span)
			}
			// Busy time must genuinely fit in the span: a clamped idle
			// would mean the decomposition over-counted.
			if busy := p.Buckets.Busy(); busy > p.Span*(1+relTol)+relTol {
				t.Errorf("%s: proc %d busy %g exceeds span %g", algo, p.Proc, busy, p.Span)
			}
			if p.Buckets.Idle < 0 {
				t.Errorf("%s: proc %d negative idle %g", algo, p.Proc, p.Buckets.Idle)
			}
		}
		// The average decomposition must sum to the makespan — this is
		// what makes cross-run bucket deltas an exact decomposition of
		// the makespan difference.
		if got := a.AvgBuckets.Sum(); math.Abs(got-a.Span) > relTol*a.Span {
			t.Errorf("%s: avg buckets sum to %g, span is %g", algo, got, a.Span)
		}
	}
}

// TestDiffAttributesAFSAdvantageToCacheReload is the paper's headline
// claim, recovered automatically: on a cache-heavy phased kernel (SOR)
// AFS beats GSS, and the forensic diff attributes the gap to the
// cache-reload cycles GSS pays for cross-processor migration.
func TestDiffAttributesAFSAdvantageToCacheReload(t *testing.T) {
	// SOR at a size where per-sweep reuse dominates, on the machine
	// with the steepest miss penalty (KSR-1) — the paper's strongest
	// affinity case.
	run := func(algo string) *Analysis {
		tr, _, err := CaptureSim(CaptureSpec{
			Machine: "ksr1", Kernel: "sor", Algo: algo,
			Procs: 8, N: 128, Phases: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	gss, afs := run("gss"), run("afs")
	d := Diff(gss, afs)
	if d.Faster != afs.Meta.Name() {
		t.Fatalf("expected AFS to win on SOR; verdict: %s", d.Verdict)
	}
	if d.Dominant != BucketCacheReload {
		t.Fatalf("expected cache-reload to dominate the gap, got %q; verdict: %s",
			d.Dominant, d.Verdict)
	}
	if !strings.Contains(d.Verdict, "cache-reload") {
		t.Errorf("verdict does not mention cache-reload: %s", d.Verdict)
	}
	// The per-bucket deltas must decompose the makespan difference
	// exactly.
	sum := 0.0
	for _, bd := range d.Deltas {
		sum += bd.Delta
	}
	if math.Abs(sum-d.Delta) > 1e-6*math.Abs(d.Delta) {
		t.Errorf("bucket deltas sum to %g, makespan delta is %g", sum, d.Delta)
	}
}

func TestStealGraphConsistency(t *testing.T) {
	a, err := Analyze(captureSkewed(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.StealCount == 0 {
		t.Fatal("skewed workload produced no steals; test needs a steal-heavy trace")
	}
	iters, count := 0, 0
	for _, e := range a.Steals {
		if e.Victim == e.Thief {
			t.Errorf("self-steal edge %+v", e)
		}
		iters += e.Iters
		count += e.Count
	}
	if iters != a.MigratedIters || count != a.StealCount {
		t.Errorf("edge totals (%d steals, %d iters) disagree with analysis (%d, %d)",
			count, iters, a.StealCount, a.MigratedIters)
	}
	stolenProv := 0
	for _, r := range captureSkewed(t).Prov {
		if r.Stolen {
			stolenProv++
		}
	}
	if stolenProv != a.StealCount {
		t.Errorf("stolen provenance records %d != steal-graph count %d", stolenProv, a.StealCount)
	}
}

func TestCriticalPath(t *testing.T) {
	a, err := Analyze(capture(t, "afs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CriticalPath) == 0 {
		t.Fatal("empty critical path")
	}
	prevEnd, prevStep := math.Inf(-1), -1
	for _, s := range a.CriticalPath {
		if s.End < s.Start {
			t.Errorf("segment runs backwards: %+v", s)
		}
		if s.Step == prevStep && s.Start < prevEnd-1e-9 {
			t.Errorf("overlapping segments within step %d at %g", s.Step, s.Start)
		}
		prevEnd, prevStep = s.End, s.Step
	}
	last := a.CriticalPath[len(a.CriticalPath)-1]
	if last.End > a.Makespan+1e-9 {
		t.Errorf("critical path ends at %g, after makespan %g", last.End, a.Makespan)
	}
	if got := a.PathBuckets.Sum(); got <= 0 {
		t.Errorf("path buckets sum to %g", got)
	}
}

// TestAnalyzeRequiresProvenance: the analysis reads the chunk
// records only, so a trace without them is an error, not a guess.
func TestAnalyzeRequiresProvenance(t *testing.T) {
	tr := captureSkewed(t)
	if _, err := Analyze(&telemetry.TraceFile{Meta: tr.Meta, Events: tr.Events}); err == nil {
		t.Fatal("Analyze of an events-only trace succeeded")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := capture(t, "afs")
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta round-trip: %+v != %+v", got.Meta, tr.Meta)
	}
	if len(got.Events) != len(tr.Events) || len(got.Prov) != len(tr.Prov) {
		t.Fatalf("lost records: %d/%d events, %d/%d prov",
			len(got.Events), len(tr.Events), len(got.Prov), len(tr.Prov))
	}
	if got.Prov[0] != tr.Prov[0] {
		t.Errorf("prov record round-trip: %+v != %+v", got.Prov[0], tr.Prov[0])
	}
}

// TestLiveTraceRoundTrip locks the real runtime's two live trace-file
// sources to telemetry.ReadTrace and this package: the live plane's
// /flight?format=trace (loopdoctor attach) and a span tree's
// WriteForensics export (loopdoctor trace). Each must load, pass
// tracecheck, and analyze into buckets that sum to every processor's
// span.
func TestLiveTraceRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		// trace runs a 4-worker AFS workload and returns its trace
		// file, its step count and, when known, its duration.
		trace func(t *testing.T) (body []byte, steps int, duration float64)
	}{
		{"flight", flightTraceFile},
		{"spantrace", spanTraceFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, steps, duration := tc.trace(t)
			tr, err := telemetry.ReadTrace(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("telemetry.ReadTrace rejects the trace: %v", err)
			}
			if tr.Meta.Procs != 4 {
				t.Errorf("trace procs = %d, want 4", tr.Meta.Procs)
			}
			if len(tr.Events) == 0 {
				t.Fatal("trace carries no events")
			}
			if rep := telemetry.Check(tr.Events); !rep.OK() {
				t.Fatalf("trace fails tracecheck: %v", rep.Err())
			}
			a, err := Analyze(tr)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if a.Meta.Procs != 4 || a.Steps != steps {
				t.Fatalf("analysis header: procs=%d steps=%d, want 4 and %d", a.Meta.Procs, a.Steps, steps)
			}
			// The attribution is a complete decomposition: every
			// processor's buckets sum to the common span.
			for _, pa := range a.Procs {
				sum := pa.Buckets.Compute + pa.Buckets.CacheReload +
					pa.Buckets.Interconnect + pa.Buckets.QueueWait + pa.Buckets.Idle
				if math.Abs(sum-pa.Span) > 1e-6*math.Max(1, pa.Span) {
					t.Fatalf("proc %d buckets sum to %v, span is %v", pa.Proc, sum, pa.Span)
				}
			}
			// The makespan matches the trace's duration (both are the
			// latest telemetry-clock timestamp).
			if duration > 0 && math.Abs(a.Makespan-duration) > 1e-6*duration {
				t.Fatalf("makespan %v != trace duration %v", a.Makespan, duration)
			}
		})
	}
}

// flightTraceFile runs three AFS submissions on an executor with a
// live plane and fetches the plane's /flight?format=trace.
func flightTraceFile(t *testing.T) ([]byte, int, float64) {
	x, err := pool.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	p := livemetrics.New(livemetrics.Options{})
	x.SetObservability(p)
	const subs, n = 3, 4096
	data := make([]float64, n)
	for i := 0; i < subs; i++ {
		if _, err := x.Submit(context.Background(), core.Config{Procs: 4, Spec: sched.SpecAFS()}, n,
			func(i int) { data[i] += float64(i) }); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	rec := httptest.NewRecorder()
	livemetrics.NewHandler(p, "test-engine").ServeHTTP(rec, httptest.NewRequest("GET", "/flight?format=trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/flight?format=trace: status %d (body %q)", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), subs, 0
}

// spanTraceFile runs one phased AFS submission with a span tracer
// attached and exports its sealed trace for forensics.
func spanTraceFile(t *testing.T) ([]byte, int, float64) {
	x, err := pool.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetTracer(tracer)
	const phases, n = 2, 2048
	if _, err := x.SubmitPhases(context.Background(), core.Config{Spec: sched.SpecAFS()}, phases,
		func(int) int { return n }, func(ph, i int) { _ = ph * i }); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	var buf bytes.Buffer
	if err := traces[0].WriteForensics(&buf, "real", "ns"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), phases, traces[0].DurationNS
}

func TestReportsRender(t *testing.T) {
	a, err := Analyze(captureSkewed(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(capture(t, "gss"))
	if err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	if err := WriteMarkdown(&md, a); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Execution forensics", "cache-reload", "Critical path", "Steal graph"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("analysis markdown missing %q", want)
		}
	}
	md.Reset()
	if err := WriteDiffMarkdown(&md, Diff(b, a)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Forensic diff") {
		t.Error("diff markdown missing header")
	}
	md.Reset()
	if err := WriteJSON(&md, a.Summarize()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "top_overhead") {
		t.Error("summary JSON missing top_overhead")
	}
}

// TestAnalyzeRejectsEmptyTrace pins the error path.
func TestAnalyzeRejectsEmptyTrace(t *testing.T) {
	if _, err := Analyze(&telemetry.TraceFile{Meta: telemetry.TraceMeta{Procs: 4}}); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

// TestRealRuntimeProvAnalyzes runs Analyze over records shaped like the
// real runtime's (compute-only windows, ns timestamps) to pin substrate
// independence.
func TestRealRuntimeProvAnalyzes(t *testing.T) {
	prov := []telemetry.Prov{
		{Step: 0, Proc: 0, Owner: 0, Lo: 0, Hi: 8, Start: 100, End: 900, Compute: 800},
		{Step: 0, Proc: 1, Owner: 0, Stolen: true, Lo: 8, Hi: 16, Start: 150, End: 700,
			Compute: 550, QueueWait: 50},
	}
	a, err := Analyze(&telemetry.TraceFile{Meta: telemetry.TraceMeta{Procs: 2, Substrate: "real", TimeUnit: "ns"}, Prov: prov})
	if err != nil {
		t.Fatal(err)
	}
	if a.Span != 800 { // 900 − min(start−wait)=100
		t.Errorf("span = %g, want 800", a.Span)
	}
	if a.StealCount != 1 || a.MigratedIters != 8 {
		t.Errorf("steal graph: %d steals, %d iters", a.StealCount, a.MigratedIters)
	}
	p0 := a.Procs[0].Buckets
	if p0.Compute != 800 || p0.Idle != 0 {
		t.Errorf("proc 0 buckets: %+v", p0)
	}
	p1 := a.Procs[1].Buckets
	if p1.Compute != 550 || p1.QueueWait != 50 || p1.Idle != 200 {
		t.Errorf("proc 1 buckets: %+v", p1)
	}
}

// TestFlightAndSpanTraceAttributeAlike: one submission with steals
// (AFS) or contended central-queue waits (GSS), observed by a fresh
// live plane and span tracer, lowers to identical events and records
// whether loopdoctor reads it from /flight?format=trace (attach) or
// /trace?id=…&format=trace (trace), and so to the same per-processor
// buckets.
func TestFlightAndSpanTraceAttributeAlike(t *testing.T) {
	for _, algo := range []string{"afs", "gss"} {
		t.Run(algo, func(t *testing.T) {
			spec, err := sched.ByName(algo)
			if err != nil {
				t.Fatal(err)
			}
			x, err := pool.New(4)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			p := livemetrics.New(livemetrics.Options{})
			tracer := spantrace.NewTracer(spantrace.Options{})
			x.SetObservability(p)
			x.SetTracer(tracer)
			p.SetTracer(tracer)
			// Worker 0 starts late, so the others steal from its block.
			cfg := core.Config{Procs: 4, Spec: spec, StartDelay: []time.Duration{5 * time.Millisecond}}
			if _, err := x.SubmitPhases(context.Background(), cfg, 2,
				func(int) int { return 2048 }, func(ph, i int) { _ = ph * i }); err != nil {
				t.Fatal(err)
			}
			traces := tracer.Traces()
			if len(traces) != 1 {
				t.Fatalf("retained %d traces, want 1", len(traces))
			}
			h := livemetrics.NewHandler(p, "test-engine")
			read := func(url string) *telemetry.TraceFile {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != 200 {
					t.Fatalf("%s: status %d (body %q)", url, rec.Code, rec.Body.String())
				}
				tr, err := telemetry.ReadTrace(rec.Body)
				if err != nil {
					t.Fatalf("%s: %v", url, err)
				}
				return tr
			}
			ft := read("/flight?format=trace")
			st := read(fmt.Sprintf("/trace?id=%d&format=trace", traces[0].TraceID))
			if !reflect.DeepEqual(ft.Events, st.Events) {
				t.Errorf("events differ: flight %d, trace %d", len(ft.Events), len(st.Events))
			}
			if !reflect.DeepEqual(ft.Prov, st.Prov) {
				t.Errorf("records differ: flight %d, trace %d", len(ft.Prov), len(st.Prov))
			}
			flight, err := Analyze(ft)
			if err != nil {
				t.Fatal(err)
			}
			span, err := Analyze(st)
			if err != nil {
				t.Fatal(err)
			}
			if algo == "afs" && flight.StealCount == 0 {
				t.Fatal("the submission stole nothing")
			}
			for i := range flight.Procs {
				if span.Procs[i].Buckets != flight.Procs[i].Buckets {
					t.Errorf("proc %d: trace buckets %+v, flight buckets %+v", i, span.Procs[i].Buckets, flight.Procs[i].Buckets)
				}
			}
			if flight.TotalBuckets.QueueWait == 0 {
				t.Error("no queue wait attributed")
			}
		})
	}
}

// TestSimSpanTraceMatchesProvenance: a simulated run observed through
// a provenance log, an event log and a span tracer at once analyzes
// into the same buckets from the logs as from the trace's lowering —
// the trace keeps each chunk's cache-reload and interconnect costs.
func TestSimSpanTraceMatchesProvenance(t *testing.T) {
	const procs = 8
	m := machine.Iris()
	build, _, err := cli.BuildKernel("sor", 64, 4, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	events := telemetry.NewLog[telemetry.Event]()
	prov := telemetry.NewLog[telemetry.Prov]()
	active := spantrace.NewTracer(spantrace.Options{}).StartSubmission(spantrace.SubmissionInfo{
		Scheduler: "AFS", Procs: procs, Phases: 4,
	})
	obs := telemetry.TeeObservers(telemetry.ObserveProv(prov), telemetry.ObserveEvents(events, "cycles"), active)
	if _, err := sim.RunOpts(m, procs, sched.SpecAFS(), build(), sim.Options{Observer: obs}); err != nil {
		active.Abandon()
		t.Fatal(err)
	}
	tr := active.End("ok")
	meta := telemetry.TraceMeta{Substrate: "sim", Procs: procs, TimeUnit: "cycles"}
	logs, err := Analyze(&telemetry.TraceFile{Meta: meta, Events: events.Records(), Prov: prov.Records()})
	if err != nil {
		t.Fatal(err)
	}
	lowered := &telemetry.TraceFile{Meta: meta}
	lowered.Events, lowered.Prov = tr.Telemetry("cycles")
	span, err := Analyze(lowered)
	if err != nil {
		t.Fatal(err)
	}
	if logs.TotalBuckets.CacheReload == 0 || logs.TotalBuckets.Interconnect == 0 {
		t.Fatalf("the run paid no cache reload or interconnect: %+v", logs.TotalBuckets)
	}
	for i := range logs.Procs {
		if span.Procs[i].Buckets != logs.Procs[i].Buckets {
			t.Errorf("proc %d: trace buckets %+v, log buckets %+v", i, span.Procs[i].Buckets, logs.Procs[i].Buckets)
		}
	}
	if span.TotalBuckets != logs.TotalBuckets {
		t.Errorf("totals: trace %+v, logs %+v", span.TotalBuckets, logs.TotalBuckets)
	}
}
