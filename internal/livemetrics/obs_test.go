package livemetrics_test

// Tests for the PR's observability additions: the /debug/ mux
// isolation regression (explicit pprof handlers instead of mounting
// http.DefaultServeMux), the Prometheus exposition endpoint, and the
// exemplar → span-trace resolution path.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/pool"
	"repro/internal/promtext"
	"repro/internal/sched"
	"repro/internal/spantrace"
)

// startTracedEngine is startEngine plus a span tracer attached to both
// the executor and the plane.
func startTracedEngine(t *testing.T) (*spantrace.Tracer, *httptest.Server) {
	t.Helper()
	x, err := pool.New(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	p := livemetrics.New(livemetrics.Options{})
	t.Cleanup(p.Close)
	tracer := spantrace.NewTracer(spantrace.Options{})
	x.SetObservability(p)
	x.SetTracer(tracer)
	p.SetTracer(tracer)
	spec, err := sched.ByName("afs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Procs: 4, Spec: spec}
	for i := 0; i < 3; i++ {
		if _, err := x.Submit(context.Background(), cfg, 4096, func(i int) { _ = i * i }); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	srv := httptest.NewServer(livemetrics.NewHandler(p, "traced-engine"))
	t.Cleanup(srv.Close)
	return tracer, srv
}

var registerSentinel sync.Once

// TestDebugMuxDoesNotLeakDefaultServeMux is the regression test for
// the /debug/ fix: the handler used to mount http.DefaultServeMux
// wholesale, so ANY handler any package registered globally leaked
// into the plane's surface. Now only the explicit pprof/expvar
// handlers are served.
func TestDebugMuxDoesNotLeakDefaultServeMux(t *testing.T) {
	// The global mux panics on a second registration (-count=2).
	registerSentinel.Do(func() {
		http.HandleFunc("/debug/leak-sentinel-livemetrics", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(200)
		})
	})
	_, _, srv := startEngine(t)

	resp, err := http.Get(srv.URL + "/debug/leak-sentinel-livemetrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("global DefaultServeMux handler leaked into /debug/: status %d", resp.StatusCode)
	}

	// The intended debug surface still works.
	if body := string(get(t, srv.URL+"/debug/pprof/", 200)); !strings.Contains(body, "goroutine") {
		t.Error("pprof index looks wrong")
	}
	get(t, srv.URL+"/debug/pprof/cmdline", 200)
	if body := string(get(t, srv.URL+"/debug/vars", 200)); !strings.Contains(body, "livemetrics") {
		t.Error("expvar surface missing the livemetrics var")
	}
}

func TestMetricsPromExposition(t *testing.T) {
	_, srv := startTracedEngine(t)
	body := get(t, srv.URL+"/metrics.prom", 200)
	exp, err := promtext.Parse(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics.prom is not valid exposition format: %v\n%s", err, body)
	}
	if v, err := exp.Value("loopsched_submissions_total"); err != nil || v != 3 {
		t.Fatalf("submissions sample = %v, %v", v, err)
	}
	if v, err := exp.Value("loopsched_submissions_completed_total"); err != nil || v != 3 {
		t.Fatalf("completed sample = %v, %v", v, err)
	}
	if got := len(exp.ByName("loopsched_worker_chunks_total")); got != 4 {
		t.Fatalf("worker chunk series = %d, want 4", got)
	}
	if fam, ok := exp.Families["loopsched_submission_latency_ns"]; !ok || fam.Type != "gauge" {
		t.Fatalf("latency family metadata: %+v", fam)
	}
	if got := len(exp.ByName("loopsched_submission_latency_ns")); got != 3 {
		t.Fatalf("latency quantile series = %d, want 3 quantiles", got)
	}
	exemplars := exp.ByName("loopsched_submission_exemplar_latency_ns")
	if len(exemplars) == 0 {
		t.Fatal("no exemplar series despite traced submissions")
	}
	for _, s := range exemplars {
		if s.Labels["trace_id"] == "" || s.Labels["trace_id"] == "0" {
			t.Fatalf("exemplar without a usable trace id: %+v", s)
		}
	}
}

// TestExemplarResolvesToTrace is the triage loop end to end on one
// process: the slowest exemplar in /metrics carries a trace ID that
// /trace?id= resolves to a full span tree for the same submission.
func TestExemplarResolvesToTrace(t *testing.T) {
	tracer, srv := startTracedEngine(t)

	var snap livemetrics.Snapshot
	if err := json.Unmarshal(get(t, srv.URL+"/metrics", 200), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.SubmissionExemplars) == 0 {
		t.Fatal("snapshot has no submission exemplars")
	}
	head := snap.SubmissionExemplars[0]
	for _, e := range snap.SubmissionExemplars[1:] {
		if e.LatencyNS > head.LatencyNS {
			t.Fatalf("exemplars not slowest-first: %+v", snap.SubmissionExemplars)
		}
	}

	var tr spantrace.Trace
	body := get(t, srv.URL+"/trace?id="+jsonNum(head.TraceID), 200)
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("/trace response is not a span tree: %v", err)
	}
	if tr.TraceID != head.TraceID || tr.Chunks() == 0 || tr.Outcome != "ok" {
		t.Fatalf("resolved trace is wrong: %+v", tr.Summary())
	}
	if tracer.Get(head.TraceID) == nil {
		t.Fatal("exemplar trace ID not in the tracer store")
	}

	// /traces lists it too.
	var summaries []spantrace.TraceSummary
	if err := json.Unmarshal(get(t, srv.URL+"/traces", 200), &summaries); err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 3 {
		t.Fatalf("trace list has %d entries, want 3", len(summaries))
	}
}

// Without a tracer the trace endpoints report 404, not empty data.
func TestTraceEndpointsWithoutTracer(t *testing.T) {
	_, _, srv := startEngine(t)
	get(t, srv.URL+"/traces", 404)
	get(t, srv.URL+"/trace?id=1", 404)
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
