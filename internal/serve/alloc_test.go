package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/job"
	"repro/internal/pool"
)

// Allocation budgets of one warm served job, layer by layer. Each is
// the count the code reaches; a change that adds an allocation to a
// layer fails that layer's test.
const (
	// shardSubmitAllocs: the Stats' LocalOps/RemoteOps storage, which
	// escapes in the result.
	shardSubmitAllocs = 1
	// serverSubmitAllocs: the shard's one, the kernel instance
	// job.Build makes, the scheduler-name lookup, and the submission
	// (holding its result) with its done channel and its fair-queue
	// entry.
	serverSubmitAllocs = 9
	// jobsHandlerAllocs: Server.Submit's allocations, plus the body's
	// size cap, json.Unmarshal's state, scanner stack and the spec's
	// three strings, and the reply's Content-Type value.
	jobsHandlerAllocs = 20
)

// allocSpec is serve-closed's job: 2048 spin iterations, one phase.
var allocSpec = job.Spec{Kernel: "spin", Params: job.Params{N: 2048, Phases: 1, Work: 8},
	Scheduler: "afs", Procs: 2, Tenant: "light"}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
}

// TestShardSubmitAllocs: a warm shard executor runs a 1-phase job
// under a cancellable context with one allocation. The engine reuses
// its per-submission state and polls the context instead of
// registering a callback on it.
func TestShardSubmitAllocs(t *testing.T) {
	skipUnderRace(t)
	x, err := pool.New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	run, err := job.Build(allocSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := allocSpec.Config()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submit := func() {
		if _, err := x.SubmitPhases(ctx, cfg, run.Phases, run.N, run.Body); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	if got := testing.AllocsPerRun(100, submit); got > shardSubmitAllocs {
		t.Errorf("warm shard submission: %v allocations, budget %d", got, shardSubmitAllocs)
	}
}

// TestServerSubmitAllocs: Server.Submit on a warm shard, admission to
// hand-back.
func TestServerSubmitAllocs(t *testing.T) {
	skipUnderRace(t)
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submit := func() {
		if _, err := s.Submit(ctx, allocSpec); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	if got := testing.AllocsPerRun(100, submit); got > serverSubmitAllocs {
		t.Errorf("Server.Submit on a warm shard: %v allocations, budget %d", got, serverSubmitAllocs)
	}
}

// sinkWriter is a reusable ResponseWriter: after its first use only
// what the handler itself does allocates.
type sinkWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *sinkWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// TestJobsHandlerAllocs: the /jobs handler end to end, JSON decode to
// JSON reply, less what resetting the test's request and writer
// allocates on its own.
func TestJobsHandlerAllocs(t *testing.T) {
	skipUnderRace(t)
	s, err := New(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s, "alloc")
	spec, err := json.Marshal(allocSpec)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(spec)
	body := io.NopCloser(rd)
	req := httptest.NewRequest(http.MethodPost, "/jobs", nil)
	w := &sinkWriter{h: make(http.Header)}
	reset := func() {
		rd.Reset(spec)
		req.Body = body
		clear(w.h)
		w.code = 0
		w.body.Reset()
	}
	serve := func() {
		reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("POST /jobs = %d: %s", w.code, w.body.Bytes())
		}
	}
	serve()
	var jr jobResponse
	if err := json.Unmarshal(w.body.Bytes(), &jr); err != nil || jr.Iterations != 2048 || jr.Shard != "AFS×2" {
		t.Fatalf("reply %q: %+v, %v", w.body.Bytes(), jr, err)
	}
	scaffold := testing.AllocsPerRun(100, reset)
	got := testing.AllocsPerRun(100, serve) - scaffold
	if got > jobsHandlerAllocs {
		t.Errorf("/jobs handler: %v allocations beyond the scaffold's %v, budget %d", got, scaffold, jobsHandlerAllocs)
	}
}
