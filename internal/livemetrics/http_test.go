package livemetrics_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/livemetrics"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// startEngine brings up an instrumented 4-worker executor, runs a few
// healthy AFS submissions through it, and serves its plane over an
// httptest server — the wiring internal/daemon does for loopserved.
func startEngine(t *testing.T) (*pool.Executor, *livemetrics.Plane, *httptest.Server) {
	t.Helper()
	x, err := pool.New(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	p := livemetrics.New(livemetrics.Options{})
	t.Cleanup(p.Close)
	x.SetObservability(p)
	spec, err := sched.ByName("afs")
	if err != nil {
		t.Fatal(err)
	}
	n := 4096
	data := make([]float64, n)
	cfg := core.Config{Procs: 4, Spec: spec}
	for i := 0; i < 3; i++ {
		if _, err := x.Submit(context.Background(), cfg, n, func(i int) {
			data[i] += float64(i)
		}); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	srv := httptest.NewServer(livemetrics.NewHandler(p, "test-engine"))
	t.Cleanup(srv.Close)
	return x, p, srv
}

func get(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d (body %q)", url, resp.StatusCode, wantStatus, body)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return body
}

func TestHTTPMetricsAndWorkers(t *testing.T) {
	_, _, srv := startEngine(t)
	var snap livemetrics.Snapshot
	if err := json.Unmarshal(get(t, srv.URL+"/metrics", 200), &snap); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v", err)
	}
	if snap.Counters.Submissions != 3 {
		t.Errorf("submissions = %d, want 3", snap.Counters.Submissions)
	}
	if snap.Counters.Completed != 3 {
		t.Errorf("completed = %d, want 3", snap.Counters.Completed)
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(snap.Workers))
	}
	var chunks int64
	for _, w := range snap.Workers {
		chunks += w.Chunks
		if w.AffinityHits > w.Chunks {
			t.Errorf("worker %d: affinity hits %d exceed chunks %d", w.Worker, w.AffinityHits, w.Chunks)
		}
	}
	if chunks != snap.Counters.Chunks {
		t.Errorf("per-worker chunks sum to %d, counter says %d", chunks, snap.Counters.Chunks)
	}
	var workers []livemetrics.WorkerSnapshot
	if err := json.Unmarshal(get(t, srv.URL+"/workers", 200), &workers); err != nil {
		t.Fatalf("/workers is not a worker list: %v", err)
	}
	if len(workers) != 4 {
		t.Errorf("/workers rows = %d, want 4", len(workers))
	}
	// The HTML view renders through the shared webui scaffold.
	if html := string(get(t, srv.URL+"/", 200)); !strings.Contains(html, "live plane — ") {
		t.Error("index page does not carry the plane's title")
	}
}

func TestHTTPFlightFormats(t *testing.T) {
	_, _, srv := startEngine(t)

	// jsonl: one valid JSON object per line.
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(string(get(t, srv.URL+"/flight", 200))))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", lines+1, err)
		}
		lines++
	}
	if lines == 0 {
		t.Error("jsonl flight dump is empty")
	}

	// chrome: a traceEvents envelope.
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/flight?format=chrome", 200), &chrome); err != nil {
		t.Fatalf("chrome format invalid: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}

	// Bad parameters are 400s, not panics.
	get(t, srv.URL+"/flight?format=bogus", 400)
	get(t, srv.URL+"/flight?which=bogus", 400)
	// No anomaly yet: 404.
	get(t, srv.URL+"/flight?which=anomaly", 404)
}

// TestHTTPTraceRoundTrip locks the /flight?format=trace wire format to
// telemetry.ReadTrace: the dump must load and analyze through the same
// pipeline loopdoctor attach uses.
func TestHTTPTraceRoundTrip(t *testing.T) {
	_, _, srv := startEngine(t)
	body := get(t, srv.URL+"/flight?format=trace", 200)
	tr, err := telemetry.ReadTrace(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("telemetry.ReadTrace rejects the flight trace: %v", err)
	}
	if tr.Meta.Procs != 4 {
		t.Errorf("trace procs = %d, want 4", tr.Meta.Procs)
	}
	if len(tr.Events) == 0 {
		t.Fatal("flight trace carries no events")
	}
	a, err := forensics.Analyze(tr)
	if err != nil {
		t.Fatalf("forensics.Analyze on flight trace: %v", err)
	}
	if a.Steps == 0 {
		t.Error("analysis saw no steps")
	}
}

func TestHTTPAnomalyAfterCancellation(t *testing.T) {
	x, _, srv := startEngine(t)
	spec, _ := sched.ByName("afs")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var startOnce sync.Once
	go func() {
		<-started
		cancel()
	}()
	_, err := x.Submit(ctx, core.Config{Procs: 4, Spec: spec}, 1<<16, func(i int) {
		startOnce.Do(func() { close(started) })
		<-ctx.Done()
	})
	if err == nil {
		t.Fatal("cancelled submission returned nil error")
	}
	if resp := get(t, srv.URL+"/flight?which=anomaly", 200); len(resp) == 0 {
		t.Error("anomaly dump is empty")
	}
}
