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
//	/metrics      plane snapshot JSON (per-tenant admission series)
//	/metrics.prom combined Prometheus exposition: plane + admission +
//	              SLO burn rates + watchdog + Go runtime
//	/slo          burn-rate report over default + serving objectives
//	/watchdog     detector status (default + serving rules)
//	/flight /traces /trace /workers /runtime /debug/   as engineview
//	/bundles /bundle?id=   diagnostic bundles (with -bundles DIR)
//
// Submit with the repro/serveclient package or plain curl:
//
//	curl -s -X POST localhost:8093/jobs -d \
//	    '{"kernel":"sor","scheduler":"afs","procs":4,"tenant":"team-a"}'
//
// The serving layer is wired into auto-triage end to end: admission
// p99 and shed-rate SLOs burn alongside the engine objectives, and
// the watchdog's shed-surge/admission-stall rules freeze diagnostic
// bundles when the queue collapses. That stack is assembled by
// internal/daemon, like engineview's.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/watchdog"
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
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("loopserved", flag.ExitOnError)
	var o options
	o.Register(fs, "localhost:8093")
	procs := fs.Int("p", 4, "default workers per executor shard (specs may pin their own)")
	queue := fs.Int("queue", 256, "admission backlog bound; arrivals past it shed with 429")
	dispatchers := fs.Int("dispatchers", 1, "concurrent dispatch lanes (1 = strict fair-queue order)")
	tenants := fs.String("tenants", "", "per-tenant policy: comma-separated NAME:WEIGHT:RATE:BURST (rate in jobs/sec; 0 or omitted = no quota)")
	fs.Parse(args)

	if err := cli.FirstError(
		o.Validate(),
		cli.PositiveInt("-p", *procs),
		cli.PositiveInt("-queue", *queue),
		cli.PositiveInt("-dispatchers", *dispatchers),
	); err != nil {
		return o, err
	}
	var err error
	if o.tenants, err = serve.ParseTenants("-tenants", *tenants); err != nil {
		return o, err
	}
	o.procs, o.queue, o.dispatchers = *procs, *queue, *dispatchers
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

	server, err := repro.NewServer(repro.ServerOptions{
		Procs:       o.procs,
		QueueLimit:  o.queue,
		Dispatchers: o.dispatchers,
		Tenants:     o.tenants,
		Plane:       st.Plane,
		Tracer:      repro.NewTracing(repro.TracingOptions{}),
	})
	if err != nil {
		return err
	}
	defer server.Close()

	ctx, cancel := o.Context()
	defer cancel()
	fmt.Fprintf(os.Stderr, "loopserved: serving http://%s (p=%d, queue=%d, %d tenant policies)\n",
		o.Addr, o.procs, o.queue, len(o.tenants))
	// The serve handler owns the front door. Graceful drain: stop
	// accepting (healthz goes 503 via server.Close), then let in-flight
	// HTTP exchanges finish.
	return daemon.Serve(ctx, o.Addr, st.Handler(repro.ServeHandler(server, label)), func() { server.Close() })
}
