// Command loopserved is the loop-scheduling service daemon: a
// long-running multi-tenant executor fleet accepting serializable job
// specs over HTTP/JSON against named pre-registered kernels, admitted
// through per-tenant token-bucket quotas and a weighted fair queue
// with a bounded backlog (excess sheds as 429 + Retry-After), and
// dispatched onto executor shards keyed scheduler×procs so affinity
// state persists across jobs fleet-wide.
//
//	loopserved -addr localhost:8093 -p 4 \
//	    -tenants "team-a:2:100:20,team-b:1:25:5"
//
//	/             service index (tenants, shards, queue — live)
//	/jobs         POST a job spec; stats + checksum back
//	/kernels      registered kernels and their default params
//	/status       queue depth, dispatch totals, tenants, shards
//	/tenants      tenant rows only; /shards shard rows only
//	/healthz      200 until shutdown begins
//	/metrics      rolling p50/p90/p99 latencies, counters, worker
//	              gauges, per-tenant admission series, slow-submission
//	              exemplars with trace IDs
//	/metrics.prom combined Prometheus exposition: plane + admission +
//	              SLO burn rates + watchdog + Go runtime
//	/workers      per-worker ownership, affinity-hit ratio, steal
//	              rate, queue depth
//	/flight       flight-recorder dump (?format=jsonl|chrome|trace,
//	              ?which=live|anomaly)
//	/traces       recent span traces; /trace?id=N one span tree
//	/slo          burn-rate report over default + serving objectives
//	/watchdog     detector status (default + serving rules)
//	/runtime      Go runtime/metrics sample
//	/bundles /bundle?id=   diagnostic bundles (with -bundles DIR)
//	/debug/       pprof + expvar
//
// Submit with the repro/serveclient package or plain curl:
//
//	curl -s -X POST localhost:8093/jobs -d \
//	    '{"kernel":"sor","scheduler":"afs","procs":4,"tenant":"team-a"}'
//
// With -demo ALGOS the daemon also feeds itself: an in-process "demo"
// tenant submits a stream of phased spin jobs through the same front
// door, cycling over the listed schedulers, so /workers shows the
// paper's contrast live — AFS jobs keep a high affinity-hit ratio,
// central-queue ones sit at zero. -storm-after D swaps the demo's
// kernel for spin-step (the first 10% of iterations cost 100×) for
// stormFor from D on: the worker owning that slab lags, the others
// steal from it, and the watchdog must catch the steal storm.
//
//	loopserved -addr localhost:8077 -demo afs,gss -p 4
//
// `loopdoctor attach http://localhost:8077` turns a flight dump into
// the standard attribution report, and `loopdoctor trace <id>` does
// the same for one traced job named by a /metrics exemplar.
//
// The serving layer is wired into auto-triage end to end: admission
// p99 and shed-rate SLOs burn alongside the engine objectives, and
// the watchdog's shed-surge/admission-stall rules freeze diagnostic
// bundles when the queue collapses. That stack is assembled by
// internal/daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/livemetrics"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// The demo tenant's fixed workload. One spin job of demoN iterations ×
// demoPhases at demoWork runs about as long as a phased 65536-iteration
// update loop over 8 phases (~1 ms on 4 workers).
const (
	demoTenant = "demo"
	demoN      = 32768
	demoPhases = 8
	demoWork   = 1
	demoPause  = 50 * time.Millisecond
	stormFor   = 10 * time.Second
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loopserved:", err)
		os.Exit(1)
	}
}

type options struct {
	daemon.Flags
	procs       int
	queue       int
	dispatchers int
	tenants     map[string]repro.ServerTenant
	demo        []string // schedulers the demo tenant cycles over; nil = off
	stormAfter  time.Duration
}

// parseArgs resolves and validates the flag set (internal/cli
// validators, so bad values name their flag).
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("loopserved", flag.ExitOnError)
	var o options
	o.Register(fs, "localhost:8093")
	procs := fs.Int("p", 4, "default workers per executor shard (specs may pin their own)")
	queue := fs.Int("queue", 256, "admission backlog bound; arrivals past it shed with 429")
	dispatchers := fs.Int("dispatchers", 1, "concurrent dispatch lanes (1 = strict fair-queue order)")
	tenants := fs.String("tenants", "", "per-tenant policy: comma-separated NAME:WEIGHT:RATE:BURST (rate in jobs/sec; 0 or omitted = no quota)")
	demo := fs.String("demo", "", "comma-separated schedulers an in-process demo tenant cycles over (empty = no demo)")
	stormAfter := fs.Duration("storm-after", 0, "swap the demo's kernel for spin-step this long after start, for 10s (0 = never; needs -demo)")
	fs.Parse(args)

	if err := cli.FirstError(
		o.Validate(),
		cli.PositiveInt("-p", *procs),
		cli.PositiveInt("-queue", *queue),
		cli.PositiveInt("-dispatchers", *dispatchers),
		cli.NonNegativeDuration("-storm-after", *stormAfter),
	); err != nil {
		return o, err
	}
	var err error
	if o.tenants, err = serve.ParseTenants("-tenants", *tenants); err != nil {
		return o, err
	}
	if *demo != "" {
		specs, err := cli.AlgosFlag("-demo", *demo)
		if err != nil {
			return o, err
		}
		for _, s := range specs {
			o.demo = append(o.demo, s.Name)
		}
	}
	if *stormAfter > 0 && o.demo == nil {
		return o, errors.New("-storm-after needs -demo: the storm replaces the demo tenant's kernel")
	}
	o.procs, o.queue, o.dispatchers, o.stormAfter = *procs, *queue, *dispatchers, *stormAfter
	return o, nil
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}

	// Burn-rate objectives and detector rules over engine AND serving
	// signals: admission p99 and shed rate burn beside submission p99,
	// affinity floor and steal ceiling, and a shed surge or an
	// admission-wait stall freezes a bundle just like an affinity
	// collapse does.
	label := fmt.Sprintf("loopserved p=%d q=%d", o.procs, o.queue)
	st, err := daemon.Start("loopserved", label, o.Flags,
		append(slo.DefaultObjectives(), slo.ServingObjectives()...),
		append(watchdog.DefaultRules(), watchdog.ServingRules()...))
	if err != nil {
		return err
	}
	defer st.Close()

	server, err := newServer(o, st.Plane)
	if err != nil {
		return err
	}
	defer server.Close()

	ctx, cancel := o.Context()
	defer cancel()
	demoDone := make(chan struct{})
	go func() {
		defer close(demoDone)
		if o.demo != nil {
			runDemo(ctx, server, o.demo, o.stormAfter)
		}
	}()

	if o.stormAfter > 0 {
		fmt.Fprintf(os.Stderr, "loopserved: steal storm armed: t+%v for %v\n", o.stormAfter, stormFor)
	}
	fmt.Fprintf(os.Stderr, "loopserved: serving http://%s (p=%d, queue=%d, %d tenant policies, demo %v)\n",
		o.Addr, o.procs, o.queue, len(o.tenants), o.demo)
	// The serve handler owns the front door. Graceful drain: stop the
	// demo, stop accepting (healthz goes 503 via server.Close), then
	// let in-flight HTTP exchanges finish.
	return daemon.Serve(ctx, o.Addr, st.Handler(repro.ServeHandler(server, label)), func() {
		<-demoDone
		server.Close()
	})
}

// newServer builds the service over the daemon's plane, tracing every
// job into a ring sized by traceStore.
func newServer(o options, plane *livemetrics.Plane) (*repro.Server, error) {
	return repro.NewServer(repro.ServerOptions{
		Procs:       o.procs,
		QueueLimit:  o.queue,
		Dispatchers: o.dispatchers,
		Tenants:     o.tenants,
		Plane:       plane,
		Tracer:      repro.NewTracing(repro.TracingOptions{Store: traceStore(o.Window)}),
	})
}

// traceStore sizes the trace ring for demo and posted traffic alike:
// four exemplar windows of jobs at one per demoPause (the demo's
// rate), within [64, 4096]. The plane's slow exemplars reach back a
// whole window, so a scraper that reads one and follows it seconds
// later still finds its trace. Posted traffic faster than that relies
// on the plane's pins, which keep every exemplar /metrics currently
// reports resolvable at any rate.
func traceStore(window time.Duration) int {
	return min(4096, max(64, int(4*window/demoPause)))
}

// runDemo is the demo tenant: until ctx ends it submits one spin job
// at a time through the server's front door (quota, fair queue, shard
// hand-off), cycling over algos and pausing demoPause between jobs.
// From stormAfter (when positive) for stormFor it submits spin-step
// instead.
func runDemo(ctx context.Context, server *repro.Server, algos []string, stormAfter time.Duration) {
	t0 := time.Now()
	for round := 0; ; round++ {
		_, err := server.Submit(ctx, repro.JobSpec{
			Kernel:    demoKernel(time.Since(t0), stormAfter),
			Params:    repro.JobParams{N: demoN, Phases: demoPhases, Work: demoWork},
			Scheduler: algos[round%len(algos)],
			Tenant:    demoTenant,
		})
		if errors.Is(err, serve.ErrClosed) {
			return
		}
		select {
		case <-time.After(demoPause):
		case <-ctx.Done():
			return
		}
	}
}

// demoKernel is the demo's kernel at time since from start: spin-step
// during the storm window [stormAfter, stormAfter+stormFor), spin
// otherwise (and always when stormAfter is 0).
func demoKernel(since, stormAfter time.Duration) string {
	if stormAfter > 0 && since >= stormAfter && since < stormAfter+stormFor {
		return "spin-step"
	}
	return "spin"
}
