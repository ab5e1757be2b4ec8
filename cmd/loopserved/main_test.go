package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// TestParseArgsValidatesSharedFlags: the daemon's shared flags are
// validated here, so a non-positive -window or a negative -duration is
// refused with an error naming the flag instead of silently replaced.
func TestParseArgsValidatesSharedFlags(t *testing.T) {
	if _, err := parseArgs(nil); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, args := range [][]string{{"-window", "0"}, {"-window", "-5s"}, {"-duration", "-1s"}} {
		if _, err := parseArgs(args); err == nil || !strings.HasPrefix(err.Error(), args[0]) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", args, err, args[0])
		}
	}
}

// TestParseDemoFlags: a -demo scheduler list is parsed into upper-case
// names; a bad list, a negative -storm-after and a storm with no demo
// to carry it are refused with an error naming the flag.
func TestParseDemoFlags(t *testing.T) {
	o, err := parseArgs([]string{"-demo", "afs,gss", "-storm-after", "5s"})
	if err != nil {
		t.Fatalf("demo with a storm rejected: %v", err)
	}
	if len(o.demo) != 2 || o.demo[0] != "AFS" || o.demo[1] != "GSS" || o.stormAfter != 5*time.Second {
		t.Fatalf("demo options = %v, storm %v", o.demo, o.stormAfter)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-demo", "afs", "-storm-after", "-1s"}, "-storm-after"},
		{[]string{"-storm-after", "5s"}, "-storm-after"},
		{[]string{"-demo", "nope"}, "-demo"},
		{[]string{"-demo", ","}, "-demo"},
	} {
		_, err := parseArgs(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestDemoKernel: the storm swaps in spin-step for exactly stormFor
// from -storm-after on, and never when no storm is armed.
func TestDemoKernel(t *testing.T) {
	for _, tc := range []struct {
		since, after time.Duration
		want         string
	}{
		{time.Hour, 0, "spin"},
		{4 * time.Second, 5 * time.Second, "spin"},
		{5 * time.Second, 5 * time.Second, "spin-step"},
		{5*time.Second + stormFor - 1, 5 * time.Second, "spin-step"},
		{5*time.Second + stormFor, 5 * time.Second, "spin"},
	} {
		if got := demoKernel(tc.since, tc.after); got != tc.want {
			t.Errorf("demoKernel(%v, %v) = %q, want %q", tc.since, tc.after, got, tc.want)
		}
	}
}

// startStack runs the daemon stack loopserved runs, with a watchdog
// tick long enough that no detector fires during a test, and the
// service built over it as run builds it.
func startStack(t *testing.T, args ...string) (options, *repro.Server, *httptest.Server) {
	t.Helper()
	o, err := parseArgs(append([]string{"-watchdog-tick", "1h"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	st, err := daemon.Start("loopserved", "test", o.Flags,
		append(slo.DefaultObjectives(), slo.ServingObjectives()...),
		append(watchdog.DefaultRules(), watchdog.ServingRules()...))
	if err != nil {
		t.Fatal(err)
	}
	server, err := newServer(o, st.Plane)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.Handler(repro.ServeHandler(server, "test")))
	t.Cleanup(func() {
		srv.Close()
		server.Close()
		st.Close()
	})
	return o, server, srv
}

// TestDemoGoesThroughTheFrontDoor: the demo tenant's jobs are admitted
// like posted ones, land on one shard per scheduler, and the demo
// stops when its context ends.
func TestDemoGoesThroughTheFrontDoor(t *testing.T) {
	o, server, _ := startStack(t, "-p", "2", "-demo", "afs,gss")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		runDemo(ctx, server, o.demo, 0)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for server.Status().Dispatched < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
	st := server.Status()
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != demoTenant {
		t.Fatalf("tenants = %+v, want only %q", st.Tenants, demoTenant)
	}
	var shards []string
	for _, s := range st.Shards {
		shards = append(shards, s.Shard)
	}
	if strings.Join(shards, ",") != "AFS×2,GSS×2" {
		t.Fatalf("shards = %v, want AFS×2,GSS×2", shards)
	}
}

// TestExemplarTracesResolve: after more jobs than the trace ring
// holds, every trace ID /metrics names as a latency exemplar still
// resolves at /trace, the lookup `loopdoctor trace` makes. The first
// jobs are the slowest, so they hold the top exemplar buckets while
// the ring rolls past them; the rest complete concurrently on two
// shards, so pins and ring evictions interleave.
func TestExemplarTracesResolve(t *testing.T) {
	o, server, srv := startStack(t, "-p", "2", "-dispatchers", "2")
	submit := func(spec repro.JobSpec) error {
		_, err := server.Submit(context.Background(), spec)
		return err
	}
	for i := 0; i < 16; i++ {
		if err := submit(repro.JobSpec{Kernel: "spin", Params: repro.JobParams{N: 2048, Phases: 4, Work: 40 + 10*i}}); err != nil {
			t.Fatal(err)
		}
	}
	const submitters = 4
	jobs := traceStore(o.Window) + 256
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		go func(g int) {
			spec := repro.JobSpec{Kernel: "spin", Params: repro.JobParams{N: 64, Phases: 1, Work: 1}, Scheduler: []string{"afs", "gss"}[g%2]}
			for i := 0; i < jobs/submitters; i++ {
				if err := submit(spec); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < submitters; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var snap struct {
		Exemplars []struct {
			TraceID uint64 `json:"trace_id"`
		} `json:"submission_exemplars"`
	}
	getJSON(t, srv.URL+"/metrics", &snap)
	if len(snap.Exemplars) == 0 {
		t.Fatal("no submission exemplars after traced jobs")
	}
	var lost []uint64
	for _, e := range snap.Exemplars {
		resp, err := http.Get(fmt.Sprintf("%s/trace?id=%d", srv.URL, e.TraceID))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			lost = append(lost, e.TraceID)
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d of %d exemplar traces no longer resolve after %d jobs: %v", len(lost), len(snap.Exemplars), jobs, lost)
	}
}

// TestTraceStoreCoversTheWindow: the ring holds four windows of demo
// traffic, within its floor and cap.
func TestTraceStoreCoversTheWindow(t *testing.T) {
	for _, tc := range []struct {
		window time.Duration
		want   int
	}{
		{10 * time.Second, 800},
		{time.Second, 80},
		{100 * time.Millisecond, 64},
		{time.Hour, 4096},
	} {
		if got := traceStore(tc.window); got != tc.want {
			t.Errorf("traceStore(%v) = %d, want %d", tc.window, got, tc.want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
