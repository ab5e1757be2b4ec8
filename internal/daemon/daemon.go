// Package daemon is the assembly behind the long-running command,
// cmd/loopserved, which keeps the paper's live signal — the
// affinity-hit ratio against the ⌈N/P⌉ owner — under continuous watch:
// an observability plane, an SLO burn-rate engine, a Go-runtime
// sampler, a watchdog whose firings freeze diagnostic bundles, the
// HTTP routes over all of them, and a signal-aware serve loop that
// drains before it stops. The command supplies only its own parts:
// name, label, default listen address, objectives, rules, front door
// and drain hook. The package stays separate from the command so that
// the stack's lifecycle is unit- and race-tested on its own.
package daemon

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bundle"
	"repro/internal/cli"
	"repro/internal/livemetrics"
	"repro/internal/runtimeobs"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// shutdownGrace bounds how long Serve lets in-flight HTTP exchanges
// finish once the drain hook has returned.
const shutdownGrace = 5 * time.Second

// Flags are the command-line flags the daemon stack owns.
type Flags struct {
	Addr         string
	Window       time.Duration
	Flight       int
	Duration     time.Duration
	Bundles      string
	WatchdogTick time.Duration
}

// Register declares the shared flags on fs; addr is the command's
// default listen address.
func (f *Flags) Register(fs *flag.FlagSet, addr string) {
	fs.StringVar(&f.Addr, "addr", addr, "HTTP listen address (host:port)")
	fs.DurationVar(&f.Window, "window", 10*time.Second, "rolling-quantile window")
	fs.IntVar(&f.Flight, "flight", 4096, "flight-recorder event capacity")
	fs.DurationVar(&f.Duration, "duration", 0, "stop after this long (0 = run until signalled)")
	fs.StringVar(&f.Bundles, "bundles", "", "capture watchdog diagnostic bundles into this directory (empty = watchdog only, no capture)")
	fs.DurationVar(&f.WatchdogTick, "watchdog-tick", 250*time.Millisecond, "watchdog detector tick interval")
}

// Validate rejects shared flag values the stack would otherwise
// silently replace (a non-positive -window falls back to the plane's
// default; a negative -duration would run forever), naming the flag.
func (f Flags) Validate() error {
	_, addrErr := cli.AddrFlag("-addr", f.Addr)
	return cli.FirstError(
		addrErr,
		cli.PositiveDuration("-window", f.Window),
		cli.PositiveInt("-flight", f.Flight),
		cli.NonNegativeDuration("-duration", f.Duration),
		cli.PositiveDuration("-watchdog-tick", f.WatchdogTick),
	)
}

// Context returns the daemon's lifetime: it ends on SIGINT or SIGTERM,
// or once -duration has elapsed when that is positive.
func (f Flags) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.Duration <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, f.Duration)
	return ctx, func() { cancel(); stop() }
}

// Stack is a running assembly: the plane plus the detectors scoring it.
type Stack struct {
	// Plane is the live observability plane; attach it to the
	// command's executor or server.
	Plane *livemetrics.Plane

	name, label string
	slo         *slo.Engine
	wd          *watchdog.Watchdog
	sampler     *runtimeobs.Sampler
	bundles     *bundle.Store // nil when capture is off
	stops       []func()      // run in reverse by Close
}

// Start builds the plane from f and arms the detectors over it. The
// SLO engine scores the plane's snapshots against objectives once a
// second. The runtime sampler rides GC-pause and scheduler-latency
// quantiles along in every snapshot, so an affinity collapse and
// runtime pressure are one view. The watchdog watches the plane
// against rules; when one fires it logs the trigger and, with
// -bundles, freezes a diagnostic bundle into the bounded store.
// name prefixes log lines; label names the daemon in views and bundles.
func Start(name, label string, f Flags, objectives []slo.Objective, rules []watchdog.Rule) (*Stack, error) {
	s := &Stack{name: name, label: label, sampler: runtimeobs.NewSampler(), Plane: livemetrics.New(livemetrics.Options{
		Window:       f.Window,
		FlightEvents: f.Flight,
		FlightProv:   f.Flight / 2,
	})}
	if err := s.arm(f, objectives, rules); err != nil {
		s.Plane.Close()
		return nil, err
	}
	s.stops = []func(){s.Plane.Close, s.slo.Start(time.Second), s.sampler.Start(time.Second), s.wd.Start(f.WatchdogTick)}
	s.Plane.SetRuntimeSource(s.sampler.SnapshotAny)
	return s, nil
}

// arm builds the detectors and wires their triggers; nothing ticks yet.
func (s *Stack) arm(f Flags, objectives []slo.Objective, rules []watchdog.Rule) error {
	var err error
	if s.slo, err = slo.New(s.Plane.Snapshot, objectives, slo.Options{}); err != nil {
		return err
	}
	s.wd, err = watchdog.New(s.Plane.Snapshot, rules, watchdog.Options{
		SLO:        s.slo,
		AnomalySeq: s.Plane.Recorder().AnomalySeq,
	})
	if err != nil {
		return err
	}
	if f.Bundles != "" {
		if s.bundles, err = bundle.OpenStore(f.Bundles, bundle.StoreOptions{}); err != nil {
			return err
		}
		capt, err := bundle.NewCapturer(s.bundles, bundle.Sources{
			Plane: s.Plane, SLO: s.slo, Runtime: s.sampler, Label: s.label,
		}, bundle.Options{})
		if err != nil {
			return err
		}
		bundle.Attach(s.wd, capt, func(err error) {
			fmt.Fprintf(os.Stderr, "%s: bundle capture: %v\n", s.name, err)
		})
	}
	s.wd.OnTrigger(func(t watchdog.Trigger) {
		fmt.Fprintf(os.Stderr, "%s: watchdog fired: %s (%s)\n", s.name, t.Rule, t.Reason)
	})
	return nil
}

// Close stops the detectors, then the plane, in reverse start order.
func (s *Stack) Close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// Handler returns the daemon's route table. front owns /; a nil front
// serves the plane's own HTML view there. The plane's introspection
// endpoints mount beside it, next to /slo, /watchdog, /runtime,
// /bundles and /bundle. /metrics.prom is the combined exposition —
// plane, SLO, watchdog and runtime series in one scrape, each family
// declared once (real Prometheus rejects a repeated # HELP/# TYPE).
func (s *Stack) Handler(front http.Handler) http.Handler {
	obs := livemetrics.NewHandler(s.Plane, s.label)
	if front == nil {
		front = obs
	}
	mux := http.NewServeMux()
	mux.Handle("/", front)
	for _, path := range []string{"/metrics", "/workers", "/flight", "/traces", "/trace", "/debug/"} {
		mux.Handle(path, obs)
	}
	mux.Handle("/slo", slo.Handler(s.slo, s.label))
	mux.HandleFunc("/watchdog", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, s.wd.Status())
	})
	mux.HandleFunc("/runtime", func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, s.sampler.Snapshot())
	})
	if s.bundles != nil {
		mux.HandleFunc("/bundles", func(w http.ResponseWriter, r *http.Request) { bundle.ServeList(w, s.bundles) })
		mux.HandleFunc("/bundle", func(w http.ResponseWriter, r *http.Request) { bundle.ServeBundle(w, r, s.bundles) })
	} else {
		off := fmt.Sprintf("bundle capture disabled (start %s with -bundles DIR)", s.name)
		for _, path := range []string{"/bundles", "/bundle"} {
			mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { http.Error(w, off, http.StatusNotFound) })
		}
	}
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bundle.WriteCombinedProm(w, s.Plane, s.slo, s.wd, s.sampler)
	})
	return mux
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve listens on addr until ctx ends, then runs drain (which should
// stop the command's own work) and shuts the server down, letting
// in-flight exchanges finish for up to shutdownGrace. A listen failure
// returns at once, without draining.
func Serve(ctx context.Context, addr string, h http.Handler, drain func()) error {
	srv := &http.Server{Addr: addr, Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}
