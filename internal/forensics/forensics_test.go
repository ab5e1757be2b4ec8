package forensics

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

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

// TestFromEventsFallback analyzes a trace stripped of provenance and
// checks the event-stream reconstruction still yields a full
// attribution (compute-only windows, steals recovered).
func TestFromEventsFallback(t *testing.T) {
	tr := captureSkewed(t)
	full, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	stripped := &telemetry.TraceFile{Meta: tr.Meta, Events: tr.Events}
	a, err := Analyze(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if a.StealCount != full.StealCount || a.MigratedIters != full.MigratedIters {
		t.Errorf("fallback steal graph (%d, %d) != provenance steal graph (%d, %d)",
			a.StealCount, a.MigratedIters, full.StealCount, full.MigratedIters)
	}
	const relTol = 1e-9
	for _, p := range a.Procs {
		if math.Abs(p.Buckets.Sum()-p.Span) > relTol*p.Span {
			t.Errorf("fallback proc %d buckets sum %g != span %g", p.Proc, p.Buckets.Sum(), p.Span)
		}
		if p.Buckets.CacheReload != 0 || p.Buckets.Interconnect != 0 {
			t.Errorf("fallback proc %d has cost buckets events cannot carry: %+v", p.Proc, p.Buckets)
		}
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
