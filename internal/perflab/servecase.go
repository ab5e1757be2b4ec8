package perflab

// The serving-layer benchmark and gate. serveSteady prices admission:
// the same stream of spin jobs submitted directly to a persistent
// executor ("direct") versus through internal/serve's multi-tenant
// admission pipeline ("served" — token bucket, weighted fair queue,
// dispatcher hand-off, per-tenant instruments). CI's perf-smoke job
// holds the pair with `perflab overhead -budget 1.2`: the whole
// service wrapper may cost at most 20% over a bare Submit stream.
//
// RunShedGate is the overload-protection gate (`perflab shed`): a
// deterministic two-tenant overload on an injected clock proving the
// acceptance property of loop-scheduling-as-a-service — a tenant
// submitting at its quota keeps its full fair share while a tenant
// submitting at 4x quota has exactly its excess shed as typed 429s,
// and the backlog never exceeds its bound.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveSteady builds the serve-steady case closure: one sample is a
// stream of c.Phases spin jobs of c.N iterations each, timed end to
// end. Both arms build the job from the identical Spec per submission
// and run it on AFS over c.Procs workers; only the submission path
// differs, so the pair's gap is pure admission overhead. Engine
// creation sits inside the timed region in both arms (pool.New vs
// serve.New), matching the many-small-loops convention: the claim
// covers what a process pays to serve the stream, setup included.
// Neither arm wires the case telemetry registry — the served arm's
// pipeline has no seam for one, and instrumenting only the direct arm
// would bias the gated ratio.
func serveSteady(c Case) (func(obs telemetry.Observer) (core.Stats, error), error) {
	switch c.Algo {
	case "direct", "served":
	default:
		return nil, fmt.Errorf("serve-steady wants algo direct or served (got %q)", c.Algo)
	}
	spec := job.Spec{
		Kernel:    "spin",
		Params:    job.Params{N: c.N, Phases: 1, Work: 8},
		Scheduler: "afs",
		Procs:     c.Procs,
	}
	return func(telemetry.Observer) (core.Stats, error) {
		ctx := context.Background()
		var total core.Stats
		start := time.Now()
		if c.Algo == "direct" {
			x, err := pool.New(c.Procs)
			if err != nil {
				return total, err
			}
			defer x.Close()
			cfg, err := spec.Config()
			if err != nil {
				return total, err
			}
			for ph := 0; ph < c.Phases; ph++ {
				run, err := job.Build(spec)
				if err != nil {
					return total, err
				}
				st, err := x.SubmitPhases(ctx, cfg, run.Phases, run.N, run.Body)
				if err != nil {
					return total, err
				}
				total.Iterations += st.Iterations
				total.Steals += st.Steals
			}
		} else {
			srv, err := serve.New(serve.Options{Procs: c.Procs})
			if err != nil {
				return total, err
			}
			defer srv.Close()
			for ph := 0; ph < c.Phases; ph++ {
				res, err := srv.Submit(ctx, spec)
				if err != nil {
					return total, err
				}
				total.Iterations += res.Stats.Iterations
				total.Steals += res.Stats.Steals
			}
		}
		total.Elapsed = time.Since(start)
		return total, nil
	}, nil
}

// ShedGateOptions sizes the overload gate.
type ShedGateOptions struct {
	Procs    int // workers per executor shard (default 2)
	Rounds   int // quota periods to run (default 25)
	Overload int // aggressive submissions per round (default 4 = 4x quota)
	N        int // spin iterations per job (default 256)
}

// ShedGateResult is the gate's evidence.
type ShedGateResult struct {
	Rounds             int
	Overload           int
	SteadyGoodput      int     // steady-tenant jobs admitted AND completed
	SteadyShare        float64 // goodput / fair share (1.0 = full share)
	AggressiveAdmitted int
	AggressiveShed     int
	ControlGoodput     int // quota-free control tenant, must equal Rounds
	MaxQueued          int
	QueueLimit         int
}

// RunShedGate drives the deterministic two-tenant overload and checks
// every acceptance condition, returning a non-nil error on the first
// violation. The server runs on an injected clock advanced exactly one
// quota period per round, so the verdict is a property of the
// admission pipeline, not of host timing: each round the steady tenant
// submits once (its quota), the aggressive tenant submits Overload
// times (Overload-1 past quota), and a quota-free control tenant
// submits once.
//
// Gate conditions:
//   - steady goodput within 10% of its fair share (deterministically
//     it is exactly the fair share; the margin absorbs nothing here
//     but states the acceptance criterion);
//   - the aggressive tenant's excess — and only its excess — sheds,
//     every shed a typed *serve.ShedError mapping to HTTP 429 with a
//     positive Retry-After (never queued, never silently dropped);
//   - the control tenant never sheds (sheds are targeted, not
//     indiscriminate — the gate's vacuous-green guard);
//   - the backlog never exceeds its configured bound.
func RunShedGate(opts ShedGateOptions) (ShedGateResult, error) {
	if opts.Procs <= 0 {
		opts.Procs = 2
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 25
	}
	if opts.Overload <= 0 {
		opts.Overload = 4
	}
	if opts.N <= 0 {
		opts.N = 256
	}
	res := ShedGateResult{Rounds: opts.Rounds, Overload: opts.Overload}

	// Injected clock: one token per tenant per 100ms period at rate 10.
	const rate = 10.0
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	srv, err := serve.New(serve.Options{
		Procs:      opts.Procs,
		QueueLimit: 8,
		Tenants: map[string]serve.TenantConfig{
			"steady":     {Weight: 1, Rate: rate, Burst: 1},
			"aggressive": {Weight: 1, Rate: rate, Burst: 1},
			"control":    {Weight: 1}, // no quota
		},
		Now: clock,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	res.QueueLimit = srv.Status().QueueLimit

	spec := func(tenant string) job.Spec {
		return job.Spec{
			Kernel: "spin",
			Params: job.Params{N: opts.N, Phases: 1, Work: 4},
			Procs:  opts.Procs,
			Tenant: tenant,
		}
	}
	ctx := context.Background()
	for round := 0; round < opts.Rounds; round++ {
		if round > 0 {
			advance(100 * time.Millisecond) // refill one token per tenant
		}
		if _, err := srv.Submit(ctx, spec("steady")); err != nil {
			return res, fmt.Errorf("round %d: steady tenant shed inside its quota: %w", round, err)
		}
		res.SteadyGoodput++
		if _, err := srv.Submit(ctx, spec("control")); err != nil {
			return res, fmt.Errorf("round %d: quota-free control tenant refused (sheds are indiscriminate): %w", round, err)
		}
		res.ControlGoodput++
		for k := 0; k < opts.Overload; k++ {
			_, err := srv.Submit(ctx, spec("aggressive"))
			switch {
			case err == nil:
				res.AggressiveAdmitted++
			default:
				var shed *serve.ShedError
				if !errors.As(err, &shed) {
					return res, fmt.Errorf("round %d: over-quota error is %T (%v), want *serve.ShedError", round, err, err)
				}
				if got := serve.HTTPStatus(err); got != 429 {
					return res, fmt.Errorf("round %d: shed maps to HTTP %d, want 429", round, got)
				}
				if shed.RetryAfter <= 0 {
					return res, fmt.Errorf("round %d: shed without a Retry-After hint: %+v", round, shed)
				}
				res.AggressiveShed++
			}
		}
		if q := srv.Status().Queued; q > res.MaxQueued {
			res.MaxQueued = q
		}
	}

	fairShare := opts.Rounds // one admission per quota period
	res.SteadyShare = float64(res.SteadyGoodput) / float64(fairShare)
	if res.SteadyShare < 0.9 {
		return res, fmt.Errorf("steady tenant goodput %d is %.0f%% of its fair share %d (need ≥ 90%%)",
			res.SteadyGoodput, 100*res.SteadyShare, fairShare)
	}
	wantShed := opts.Rounds * (opts.Overload - 1)
	if res.AggressiveShed != wantShed || res.AggressiveAdmitted != opts.Rounds {
		return res, fmt.Errorf("aggressive tenant admitted %d / shed %d, want exactly %d / %d (quota enforcement drifted)",
			res.AggressiveAdmitted, res.AggressiveShed, opts.Rounds, wantShed)
	}
	if res.MaxQueued > res.QueueLimit {
		return res, fmt.Errorf("backlog reached %d, past its bound %d", res.MaxQueued, res.QueueLimit)
	}
	return res, nil
}
