package daemon

import (
	"bytes"
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/promtext"
	"repro/internal/runtimeobs"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/spantrace"
	"repro/internal/telemetry"
	"repro/internal/watchdog"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// volatile matches the values that depend on the wall clock: the
// plane's uptime and an exemplar's age.
var volatile = regexp.MustCompile(`(?m)("(?:uptime_seconds|age_seconds)": )[^,\n]+|^(loopsched_uptime_seconds )\S+$`)

func maskVolatile(b []byte) []byte { return volatile.ReplaceAll(b, []byte("$1$2<volatile>")) }

// checkGolden compares got with testdata/name byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (rerun with -update to accept):\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// goldenSnapshot is a plane snapshot with two workers, two tenants and
// two exemplars, listed fastest first so the writer's ordering shows.
func goldenSnapshot() livemetrics.Snapshot {
	return livemetrics.Snapshot{
		UptimeSeconds: 12.5,
		WindowSeconds: 10,
		Counters: livemetrics.Counters{Submissions: 40, Completed: 37, Cancellations: 2, Panics: 1,
			Chunks: 5120, Steals: 96, MigratedIters: 1536},
		Submission: livemetrics.Quantiles{Count: 40, P50: 1.5e6, P90: 2.25e6, P99: 3.375e6},
		Chunk:      livemetrics.Quantiles{Count: 5120, P50: 1250.5, P90: 4000, P99: 1e4},
		Steal:      livemetrics.Quantiles{Count: 96, P50: 300, P90: 0.125, P99: 7e-9},
		Workers: []livemetrics.WorkerSnapshot{
			{Worker: 0, Chunks: 2600, Iters: 41600, AffinityHits: 2400, AffinityHitRatio: 0.9230769230769231,
				StolenExec: 40, Victimized: 56, Utilization: 0.75, StealRate: 2.5, QueueDepth: 12},
			{Worker: 1, Chunks: 2520, Iters: 40320, AffinityHits: 2016, AffinityHitRatio: 0.8,
				StolenExec: 56, Victimized: 40, Utilization: 1, StealRate: 0, QueueDepth: 0},
		},
		SubmissionExemplars: []livemetrics.Exemplar{
			{TraceID: 7, LatencyNS: 1.5e6, BucketNS: 1.7e6, AgeSecs: 3},
			{TraceID: 9, LatencyNS: 3.375e6, BucketNS: 3.8e6, AgeSecs: 1},
		},
		FlightDroppedEvents: 17,
		FlightDroppedProv:   8,
		Admission: &livemetrics.AdmissionSnapshot{
			Admitted: 41, Shed: 3, Rejected: 2,
			Wait: livemetrics.Quantiles{Count: 41, P50: 2e4, P90: 8e4, P99: 2.5e5},
			Tenants: []livemetrics.TenantSnapshot{
				{Tenant: "alpha", Submitted: 30, Admitted: 28, Shed: 1, Rejected: 1, Completed: 27},
				{Tenant: "beta", Submitted: 16, Admitted: 13, Shed: 2, Rejected: 1, Completed: 13},
			},
		},
	}
}

// goldenReport covers every window of every stock objective, with one
// objective never observed and one breaching.
func goldenReport() slo.Report {
	rep := slo.Report{Ticks: 7, Breaching: true}
	for i, o := range append(slo.DefaultObjectives(), slo.ServingObjectives()...) {
		st := slo.ObjectiveStatus{Objective: o, Value: 0.25 * float64(i+1), Observed: i != 1, Breaching: i == 0}
		for j, w := range o.Windows {
			st.Windows = append(st.Windows, slo.WindowStatus{
				DurationSecs: w.Duration.Seconds(), MaxBurn: w.MaxBurn, Samples: 10 * (j + 1),
				BadFraction: 0.1 * float64(i), BurnRate: 1.5 * float64(i+j), Burning: i == 0,
			})
		}
		rep.Objectives = append(rep.Objectives, st)
	}
	return rep
}

// goldenStatus covers every stock rule: the first warm and armed, the
// second warm but cooling down, the third observed but not warm, the
// rest never observed.
func goldenStatus() watchdog.Status {
	st := watchdog.Status{Ticks: 120, Triggers: 2}
	for i, r := range append(watchdog.DefaultRules(), watchdog.ServingRules()...) {
		rs := watchdog.RuleStatus{Rule: r}
		switch i {
		case 0:
			rs.Observed, rs.Value, rs.Baseline, rs.Sigma, rs.Warm, rs.Firings = true, 0.75, 0.8, 0.01, true, 1
		case 1:
			rs.Observed, rs.Value, rs.Baseline, rs.Warm, rs.CooldownLeft, rs.Firings = true, 3.5e6, 2.25e6, true, 4, 1
		case 2:
			rs.Observed, rs.Value = true, 0.5
		}
		st.Rules = append(st.Rules, rs)
	}
	return st
}

func goldenRuntime() runtimeobs.Snapshot {
	return runtimeobs.Snapshot{
		SampledAgoSeconds: 0.5, IntervalSeconds: 1,
		Goroutines: 42, HeapLiveBytes: 1 << 20, GCCycles: 3, GCCPUFraction: 0.0125,
		GCPause:      livemetrics.Quantiles{Count: 3, P50: 65536, P90: 131072, P99: 262144},
		SchedLatency: livemetrics.Quantiles{Count: 900, P50: 256, P90: 1024, P99: 16384},
	}
}

// TestPromGolden pins each writer's exposition bytes over hand-built
// inputs, and checks that each parses.
func TestPromGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"livemetrics.prom", func(b *bytes.Buffer) error { return livemetrics.WriteProm(b, goldenSnapshot()) }},
		{"slo.prom", func(b *bytes.Buffer) error { return slo.WriteProm(b, goldenReport()) }},
		{"watchdog.prom", func(b *bytes.Buffer) error { return watchdog.WriteProm(b, goldenStatus()) }},
		{"runtimeobs.prom", func(b *bytes.Buffer) error { return runtimeobs.WriteProm(b, goldenRuntime()) }},
	} {
		var b bytes.Buffer
		if err := c.write(&b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := promtext.Parse(bytes.NewReader(b.Bytes())); err != nil {
			t.Errorf("%s does not parse: %v", c.name, err)
		}
		checkGolden(t, c.name, b.Bytes())
	}
}

// goldenStack is a daemon stack over deterministic state: a plane fed
// two tenants' admissions and two traced submissions, an SLO engine
// and a watchdog ticked on a fixed clock (too few ticks to warm any
// rule), a runtime sampler that has never sampled, an empty bundle
// store, and a serving front door with one completed job.
func goldenStack(t *testing.T) *httptest.Server {
	t.Helper()
	at := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	now := func() time.Time { return at }
	plane := livemetrics.New(livemetrics.Options{Window: time.Minute})
	tracer := spantrace.NewTracer(spantrace.Options{})
	srv, err := serve.New(serve.Options{Procs: 2, Now: now, Tenants: map[string]serve.TenantConfig{
		"alpha": {Weight: 1, Rate: 100, Burst: 10},
		"beta":  {Weight: 3, Rate: 0.5, Burst: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), job.Spec{Kernel: "spin", Params: job.Params{N: 64, Phases: 1, Work: 1},
		Scheduler: "afs", Procs: 2, Tenant: "alpha"}); err != nil {
		t.Fatal(err)
	}
	for i, lat := range []time.Duration{1500 * time.Microsecond, 3375 * time.Microsecond} {
		a := tracer.StartSubmission(spantrace.SubmissionInfo{Label: "golden", Scheduler: "AFS", Procs: 2, Phases: 1})
		a.Chunk(telemetry.Prov{Step: 0, Proc: 0, Owner: 0, Lo: 0, Hi: 4, Start: 10, End: 50})
		a.Chunk(telemetry.Prov{Step: 0, Proc: 1, Owner: 0, Stolen: true, Lo: 4, Hi: 6, Start: 14, End: 40 + float64(i), QueueWait: 2})
		a.Phase(telemetry.PhaseMark{Step: 0, N: 8, Start: 0, End: 60, Barrier: true})
		tr := a.End("ok")
		plane.SetTracer(tracer)
		plane.ObserveSubmission(lat, livemetrics.OutcomeOK, "", tr.TraceID)
	}
	for _, tenant := range []string{"alpha", "beta", "alpha"} {
		plane.ObserveAdmission(tenant, 20*time.Microsecond, livemetrics.AdmitAdmitted)
	}
	plane.ObserveAdmission("beta", 0, livemetrics.AdmitShed)
	plane.ObserveAdmission("beta", 0, livemetrics.AdmitRejected)
	plane.ObserveTenantCompletion("alpha")

	objectives := append(slo.DefaultObjectives(), slo.ServingObjectives()...)
	eng, err := slo.New(plane.Snapshot, objectives, slo.Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := watchdog.New(plane.Snapshot, append(watchdog.DefaultRules(), watchdog.ServingRules()...),
		watchdog.Options{SLO: eng, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		eng.Tick()
		wd.Tick()
	}
	store, err := bundle.OpenStore(t.TempDir(), bundle.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := &Stack{Plane: plane, name: "golden", label: "golden", slo: eng, wd: wd,
		sampler: runtimeobs.NewSampler(), bundles: store}
	hs := httptest.NewServer(st.Handler(serve.NewHandler(srv, "golden")))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs
}

// TestRouteGolden pins the combined scrape and one indented JSON reply
// from every route that writes one, with the clock-dependent values
// masked.
func TestRouteGolden(t *testing.T) {
	hs := goldenStack(t)
	for _, c := range []struct{ path, golden string }{
		{"/metrics.prom", "combined.prom"},
		{"/metrics", "metrics.json"},
		{"/workers", "workers.json"},
		{"/traces", "traces.json"},
		{"/trace?id=2", "trace.json"},
		{"/slo?format=json", "slo.json"},
		{"/watchdog", "watchdog.json"},
		{"/runtime", "runtime.json"},
		{"/bundles", "bundles.json"},
		{"/kernels", "kernels.json"},
		{"/status", "status.json"},
		{"/tenants", "tenants.json"},
		{"/shards", "shards.json"},
		{"/healthz", "healthz.json"},
	} {
		code, body := get(t, hs.URL+c.path)
		if code != 200 {
			t.Errorf("GET %s: %d", c.path, code)
		}
		checkGolden(t, c.golden, maskVolatile([]byte(body)))
	}
}
