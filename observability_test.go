package repro_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
)

// TestObservabilityExecutor wires a plane to a persistent executor via
// the public API — the embedder deployment shape — and checks that
// the plane sees every submission.
func TestObservabilityExecutor(t *testing.T) {
	plane := repro.NewObservability(repro.ObservabilityOptions{})
	ex, err := repro.NewExecutor(repro.WithProcs(4), repro.WithObservability(plane))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if ex.Observability() != plane {
		t.Fatal("Executor.Observability does not return the attached plane")
	}
	n := 2048
	data := make([]float64, n)
	const subs = 4
	for i := 0; i < subs; i++ {
		if _, err := ex.Submit(t.Context(), n, func(i int) { data[i]++ }, repro.WithScheduler("afs")); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	snap := plane.Snapshot()
	if snap.Counters.Submissions != subs {
		t.Errorf("submissions = %d, want %d", snap.Counters.Submissions, subs)
	}
	if snap.Counters.Completed != subs {
		t.Errorf("completed = %d, want %d", snap.Counters.Completed, subs)
	}
	if snap.Counters.Chunks == 0 {
		t.Error("plane saw no chunks")
	}
	if len(snap.Workers) != 4 {
		t.Errorf("worker rows = %d, want 4", len(snap.Workers))
	}
	for i := range data {
		if data[i] != subs {
			t.Fatalf("data[%d] = %v, want %d: submissions interfered", i, data[i], subs)
		}
	}
}

// TestObservabilityOneShot: the one-shot ParallelFor path observes
// through the same plane option.
func TestObservabilityOneShot(t *testing.T) {
	plane := repro.NewObservability(repro.ObservabilityOptions{})
	n := 1024
	var hits [1024]int32
	if _, err := repro.ParallelFor(n, func(i int) { hits[i]++ },
		repro.WithProcs(4), repro.WithScheduler("afs"), repro.WithObservability(plane)); err != nil {
		t.Fatal(err)
	}
	snap := plane.Snapshot()
	if snap.Counters.Submissions != 1 {
		t.Errorf("submissions = %d, want 1", snap.Counters.Submissions)
	}
	if snap.Counters.Completed != 1 {
		t.Errorf("completed = %d, want 1", snap.Counters.Completed)
	}
}

// TestTracingExecutor wires a tracer and a plane to a persistent
// executor via the public API and follows the triage loop end to end:
// every submission yields a span tree, the plane's exemplars carry the
// trace IDs, and TraceHandler serves the trees over HTTP.
func TestTracingExecutor(t *testing.T) {
	plane := repro.NewObservability(repro.ObservabilityOptions{})
	tracer := repro.NewTracing(repro.TracingOptions{})
	ex, err := repro.NewExecutor(repro.WithProcs(2),
		repro.WithObservability(plane), repro.WithTracing(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if ex.Tracing() != tracer {
		t.Fatal("Executor.Tracing does not return the attached tracer")
	}
	const subs = 3
	data := make([]float64, 4096)
	for i := 0; i < subs; i++ {
		if _, err := ex.Submit(t.Context(), len(data), func(i int) { data[i]++ },
			repro.WithScheduler("afs")); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	traces := tracer.Traces()
	if len(traces) != subs {
		t.Fatalf("tracer retained %d traces, want %d", len(traces), subs)
	}
	for _, tr := range traces {
		if tr.Outcome != "ok" || tr.Chunks() == 0 || tr.Scheduler != "AFS" {
			t.Fatalf("trace %d looks wrong: %+v", tr.TraceID, tr.Summary())
		}
	}

	// The plane's slow exemplars name real retained traces.
	snap := plane.Snapshot()
	if len(snap.SubmissionExemplars) == 0 {
		t.Fatal("plane retained no submission exemplars despite tracing")
	}
	for _, e := range snap.SubmissionExemplars {
		if tracer.Get(e.TraceID) == nil {
			t.Fatalf("exemplar trace %d not resolvable in the tracer", e.TraceID)
		}
	}

	// TraceHandler serves both endpoints from the public wrapper.
	srv := httptest.NewServer(repro.TraceHandler(tracer))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summaries []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&summaries); err != nil {
		t.Fatalf("/traces does not decode: %v", err)
	}
	if len(summaries) != subs {
		t.Fatalf("/traces lists %d traces, want %d", len(summaries), subs)
	}
	resp2, err := srv.Client().Get(srv.URL + fmt.Sprintf("/trace?id=%d", traces[0].TraceID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tree struct { // a repro.SpanTrace's JSON form
		TraceID uint64       `json:"trace_id"`
		Spans   []repro.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&tree); err != nil {
		t.Fatalf("/trace does not decode: %v", err)
	}
	if tree.TraceID != traces[0].TraceID || len(tree.Spans) == 0 {
		t.Fatalf("served span tree is wrong: id %d, %d spans", tree.TraceID, len(tree.Spans))
	}
}

// TestTracingOneShot: the one-shot ParallelFor path seals a trace per
// call through the same WithTracing option.
func TestTracingOneShot(t *testing.T) {
	tracer := repro.NewTracing(repro.TracingOptions{})
	var hits [512]int32
	if _, err := repro.ParallelFor(len(hits), func(i int) { hits[i]++ },
		repro.WithProcs(2), repro.WithTracing(tracer)); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("tracer retained %d traces, want 1", len(traces))
	}
	if traces[0].Outcome != "ok" || traces[0].Chunks() == 0 {
		t.Fatalf("one-shot trace looks wrong: %+v", traces[0].Summary())
	}
}

// TestObservabilityHandler serves the plane over HTTP from the public
// wrapper and decodes the scrape.
func TestObservabilityHandler(t *testing.T) {
	plane := repro.NewObservability(repro.ObservabilityOptions{})
	if _, err := repro.ParallelFor(512, func(int) {},
		repro.WithProcs(2), repro.WithObservability(plane)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repro.ObservabilityHandler(plane, "public-api"))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap repro.ObservabilitySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not an ObservabilitySnapshot: %v", err)
	}
	if snap.Counters.Submissions != 1 {
		t.Errorf("scraped submissions = %d, want 1", snap.Counters.Submissions)
	}
}

// TestExecutorRejectsSubmissionPlaneOrTracer: the plane and the tracer
// belong to the executor. A submission that passes a different one
// fails with an error naming the option, instead of running with the
// option silently ignored; re-passing the executor's own is fine.
func TestExecutorRejectsSubmissionPlaneOrTracer(t *testing.T) {
	plane := repro.NewObservability(repro.ObservabilityOptions{})
	other := repro.NewObservability(repro.ObservabilityOptions{})
	tracer := repro.NewTracing(repro.TracingOptions{})

	bare, err := repro.NewExecutor(repro.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	owned, err := repro.NewExecutor(repro.WithProcs(2),
		repro.WithObservability(plane), repro.WithTracing(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer owned.Close()

	cases := []struct {
		name string
		ex   *repro.Executor
		opt  repro.Option
		want string // "" accepts the submission
	}{
		{"plane on a plane-less executor", bare, repro.WithObservability(plane), "WithObservability"},
		{"tracer on a tracer-less executor", bare, repro.WithTracing(tracer), "WithTracing"},
		{"another plane", owned, repro.WithObservability(other), "WithObservability"},
		{"another tracer", owned, repro.WithTracing(repro.NewTracing(repro.TracingOptions{})), "WithTracing"},
		{"the executor's own plane", owned, repro.WithObservability(plane), ""},
		{"the executor's own tracer", owned, repro.WithTracing(tracer), ""},
	}
	for _, c := range cases {
		var ran atomic.Int64
		_, err := c.ex.Submit(t.Context(), 64, func(int) { ran.Add(1) }, c.opt)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		case c.want != "" && ran.Load() != 0:
			t.Errorf("%s: the rejected submission ran %d iterations", c.name, ran.Load())
		}
	}
	if got := other.Snapshot().Counters.Submissions; got != 0 {
		t.Errorf("the rejected plane recorded %d submissions", got)
	}
	if got := plane.Snapshot().Counters.Submissions; got != 2 {
		t.Errorf("the executor's plane recorded %d submissions, want 2", got)
	}
}
