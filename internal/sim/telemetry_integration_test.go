package sim_test

// Integration tests for the unified telemetry layer on the simulator
// substrate: every registered scheduling algorithm, across the
// paper's five kernels, must produce an event stream that passes the
// tracecheck invariants (every iteration executed exactly once per
// step, at most one migration per iteration per step, legal steals),
// and the stream must agree with the engine's aggregate metrics.

import (
	"math"
	"testing"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// paperKernels builds small instances of the paper's five kernels.
func paperKernels(t *testing.T, m *machine.Machine) map[string]func() sim.Program {
	t.Helper()
	out := make(map[string]func() sim.Program)
	for name, args := range map[string][2]int{
		"sor":     {24, 3}, // n, phases
		"gauss":   {20, 0},
		"tc-skew": {16, 0},
		"adjoint": {8, 0},
		"l4":      {64, 3},
	} {
		build, _, err := cli.BuildKernel(name, args[0], args[1], 1, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = build
	}
	return out
}

// TestTracecheckAllSchedulersAllKernels is the acceptance gate: the
// invariant verifier passes on traces from every registered scheduler
// across all five kernels.
func TestTracecheckAllSchedulersAllKernels(t *testing.T) {
	m := machine.Iris()
	kernels := paperKernels(t, m)
	for kname, build := range kernels {
		for _, spec := range sched.AllSpecs() {
			stream := telemetry.NewLog[telemetry.Event]()
			res, err := sim.RunOpts(m, 4, spec, build(), sim.Options{Observer: telemetry.ObserveEvents(stream, "cycles")})
			if err != nil {
				t.Fatalf("%s/%s: %v", kname, spec.Name, err)
			}
			rep := telemetry.Check(stream.Records())
			if err := rep.Err(); err != nil {
				t.Errorf("%s/%s: %v", kname, spec.Name, err)
			}
			// The stream must agree with the aggregate metrics.
			steals := 0
			for _, e := range stream.Records() {
				if e.Kind == telemetry.KindSteal {
					steals++
				}
			}
			if steals != res.Steals {
				t.Errorf("%s/%s: %d steal events vs %d metric steals",
					kname, spec.Name, steals, res.Steals)
			}
		}
	}
}

// simTotals is what a metrics registry must hold after some runs:
// the runs' summed Metrics, iterations and provenance records.
type simTotals struct {
	central, local, remote, steals, migrated, iters, chunks int
}

func (t *simTotals) add(res sim.Metrics, prov []telemetry.Prov) {
	t.central += res.CentralOps
	t.local += sumInts(res.LocalOps)
	t.remote += sumInts(res.RemoteOps)
	t.steals += res.Steals
	t.migrated += res.MigratedIters
	t.chunks += len(prov)
	for _, p := range prov {
		t.iters += p.Iters()
	}
}

// TestSimRegistryTimeSeries: the metrics registry snapshots once per
// non-empty step, its counters agree with the final metrics and with
// the chunk and steal counts, and a registry shared by several runs
// holds their sum rather than the largest run.
func TestSimRegistryTimeSeries(t *testing.T) {
	m := machine.Iris()
	build, _, err := cli.BuildKernel("sor", 32, 5, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	prog := build()
	wantIters, nonEmpty := 0, 0
	for s := 0; s < prog.Steps; s++ {
		if n := prog.Step(s).N; n > 0 {
			wantIters += n
			nonEmpty++
		}
	}
	reg := telemetry.NewRegistry()
	var want simTotals
	for run, seed := range []uint64{1, 2} {
		prov := telemetry.NewLog[telemetry.Prov]()
		res, err := sim.RunOpts(m, 4, sched.SpecAFS(), build(), sim.Options{Seed: seed,
			Observer: telemetry.TeeObservers(telemetry.ObserveMetrics(reg, "cycles"), telemetry.ObserveProv(prov))})
		if err != nil {
			t.Fatal(err)
		}
		want.add(res, prov.Records())
		if want.iters != (run+1)*wantIters {
			t.Fatalf("run %d: provenance covers %d iterations, want %d", run, want.iters, (run+1)*wantIters)
		}
		series := reg.Series()
		if len(series) != (run+1)*nonEmpty {
			t.Fatalf("run %d: %d samples for %d non-empty steps per run", run, len(series), nonEmpty)
		}
		last := series[len(series)-1].Values
		for name, w := range map[string]int{
			"central_ops": want.central, "local_ops": want.local, "remote_ops": want.remote,
			"steals": want.steals, "migrated_iters": want.migrated, "iterations": want.iters,
			"steal_latency_cycles_count": want.steals, "chunk_size_count": want.chunks,
		} {
			if got := int(last[name]); got != w {
				t.Errorf("after run %d: registry %s %d, want %d", run, name, got, w)
			}
		}
		// Counters are cumulative, so the series must be non-decreasing.
		prev := -1.0
		for _, s := range series {
			v := s.Values["local_ops"]
			if v < prev {
				t.Fatalf("local_ops series decreased: %v then %v", prev, v)
			}
			prev = v
		}
	}
	if want.steals == 0 {
		t.Error("no steals: the shared-registry sums are untested")
	}
}

// TestWaitMetricsSumToQueueWait: each chunk's queue wait lands in
// exactly one of the registry's wait metrics — a stolen chunk's in
// steal_latency_cycles, any other nonzero one in queue_wait_cycles — so
// the two sums add up to the engine's QueueWaitCycles. The registry
// adds the waits in completion order and the engine in fetch order,
// and a steal's wait is split off, so the float sums may differ by
// rounding only (on tc-skew AFS by 2.4e-16 of the total).
func TestWaitMetricsSumToQueueWait(t *testing.T) {
	m := machine.Iris()
	for _, c := range []struct {
		kernel string
		spec   sched.Spec
	}{{"gauss", sched.SpecAFS()}, {"gauss", sched.SpecGSS()}, {"gauss", sched.SpecSS()},
		{"tc-skew", sched.SpecAFS()}, {"tc-skew", sched.SpecFactoring()}} {
		build, _, err := cli.BuildKernel(c.kernel, 64, 0, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := c.spec
		reg := telemetry.NewRegistry()
		res, err := sim.RunOpts(m, 8, spec, build(), sim.Options{Seed: 11, Observer: telemetry.ObserveMetrics(reg, "cycles")})
		if err != nil {
			t.Fatal(err)
		}
		series := reg.Series()
		last := series[len(series)-1].Values
		got := last["queue_wait_cycles_sum"] + last["steal_latency_cycles_sum"]
		if math.Abs(got-res.QueueWaitCycles) > 1e-12*res.QueueWaitCycles || res.QueueWaitCycles == 0 {
			t.Errorf("%s/%s: queue_wait_cycles_sum %v + steal_latency_cycles_sum %v = %v, QueueWaitCycles %v",
				c.kernel, spec.Name, last["queue_wait_cycles_sum"], last["steal_latency_cycles_sum"], got, res.QueueWaitCycles)
		}
		if int(last["steal_latency_cycles_count"]) != res.Steals {
			t.Errorf("%s/%s: steal_latency_cycles_count %v, Steals %d", c.kernel, spec.Name, last["steal_latency_cycles_count"], res.Steals)
		}
	}
}

// TestPhaseAndQueueWaitEvents: the stream carries phase boundaries for
// every step and queue waits under a contended central queue.
func TestPhaseAndQueueWaitEvents(t *testing.T) {
	m := machine.Symmetry()
	build, _, err := cli.BuildKernel("sor", 32, 4, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	stream := telemetry.NewLog[telemetry.Event]()
	res, err := sim.RunOpts(m, 8, sched.SpecSS(), build(), sim.Options{Observer: telemetry.ObserveEvents(stream, "cycles")})
	if err != nil {
		t.Fatal(err)
	}
	var begins, ends, waits int
	for _, e := range stream.Records() {
		switch e.Kind {
		case telemetry.KindPhaseBegin:
			begins++
		case telemetry.KindPhaseEnd:
			ends++
		case telemetry.KindQueueWait:
			waits++
			if e.End <= e.Start {
				t.Fatalf("queue-wait with no duration: %+v", e)
			}
		}
	}
	if begins != res.Steps || ends != res.Steps {
		t.Errorf("phase events %d/%d for %d steps", begins, ends, res.Steps)
	}
	if waits == 0 {
		t.Error("pure self-scheduling on 8 procs produced no queue waits")
	}
}

// TestCacheFlushEvents: the time-sharing flush model emits cache-flush
// markers.
func TestCacheFlushEvents(t *testing.T) {
	m := machine.Iris()
	build, _, err := cli.BuildKernel("sor", 24, 6, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	stream := telemetry.NewLog[telemetry.Event]()
	if _, err := sim.RunOpts(m, 4, sched.SpecAFS(), build(), sim.Options{Observer: telemetry.ObserveEvents(stream, "cycles"), FlushEverySteps: 2}); err != nil {
		t.Fatal(err)
	}
	flushes := 0
	for _, e := range stream.Records() {
		if e.Kind == telemetry.KindCacheFlush {
			flushes++
		}
	}
	if flushes != 2 { // steps 2 and 4 of 6
		t.Errorf("flush events = %d, want 2", flushes)
	}
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
