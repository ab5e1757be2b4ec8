package slo_test

// Race stress: traced submissions hammering the pool while concurrent
// scrapers pull /metrics.prom and /slo and the SLO engine ticks — the
// whole observability read path racing the span-emitting write path.
// Run under -race (CI does), this locks down the tracing plane's
// concurrency contract: per-worker span buffers are single-writer, the
// exemplar store and trace ring are mutex-guarded, and snapshots are
// coherent while submissions are in flight.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livemetrics"
	"repro/internal/pool"
	"repro/internal/promtext"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/spantrace"
)

func TestScrapeRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	px, err := pool.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	plane := livemetrics.New(livemetrics.Options{Window: 10 * time.Second})
	tracer := spantrace.NewTracer(spantrace.Options{Store: 32})
	plane.SetTracer(tracer)
	px.SetObservability(plane)
	px.SetTracer(tracer)

	eng, err := slo.New(plane.Snapshot, slo.DefaultObjectives(), slo.Options{})
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		if err := livemetrics.WriteProm(w, plane.Snapshot()); err == nil {
			slo.WriteProm(w, eng.Report())
		}
	})
	mux.Handle("/slo", slo.Handler(eng, "stress"))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := slo.Every(2*time.Millisecond, eng.Tick)
	defer stop()

	const (
		submitters = 4
		scrapers   = 3
		duration   = 800 * time.Millisecond
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				_, err := px.SubmitPhases(context.Background(),
					core.Config{Spec: sched.SpecAFS()}, 2,
					func(int) int { return 512 },
					func(ph, i int) { _ = ph * i })
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, path := range []string{"/metrics.prom", "/slo?format=json"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("scrape %s: %v", path, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("scrape %s: status %d", path, resp.StatusCode)
						return
					}
					if path == "/metrics.prom" {
						if _, err := promtext.Parse(strings.NewReader(string(body))); err != nil {
							t.Errorf("mid-flight exposition invalid: %v", err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := plane.Snapshot().Counters.Submissions; got == 0 {
		t.Fatal("no submissions observed")
	}
	if len(tracer.Traces()) == 0 {
		t.Fatal("no traces retained")
	}
	// Every retained trace must be a complete tree: a root plus its
	// phases, with chunk spans covering both phases' iterations.
	for _, tr := range tracer.Traces() {
		if tr.Outcome != "ok" || tr.Phases != 2 || tr.Chunks() == 0 {
			t.Fatalf("malformed trace under race: %+v", tr)
		}
	}
}
