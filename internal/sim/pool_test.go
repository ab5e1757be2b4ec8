package sim_test

import (
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// poolConfig is one simulation whose result must not depend on what
// the pooled engine ran before it.
type poolConfig struct {
	name    string
	machine *machine.Machine
	kernel  string
	n       int
	phases  int
	procs   int
	algo    string
	observe bool
	opts    sim.Options
}

// poolConfigs differ in processor count, machine (cache size),
// kernel size, scheduler family, observer, ActiveProcs,
// FlushEverySteps and StartDelay, so each leaves the engine's storage
// in a shape the next does not expect.
func poolConfigs() []poolConfig {
	shrink := func(step int) int { return 6 - step%4 }
	return []poolConfig{
		{name: "afs", machine: machine.Iris(), kernel: "gauss", n: 48, procs: 8, algo: "afs", observe: true},
		{name: "afs-le", machine: machine.KSR1(), kernel: "gauss", n: 40, procs: 5, algo: "afs-le", observe: true,
			opts: sim.Options{Seed: 3, ActiveProcs: shrink}},
		{name: "gss", machine: machine.Symmetry(), kernel: "sor", n: 96, phases: 6, procs: 16, algo: "gss",
			opts: sim.Options{Seed: 9, FlushEverySteps: 2}},
		{name: "static", machine: machine.Iris(), kernel: "tc-skew", n: 24, procs: 3, algo: "static", observe: true,
			opts: sim.Options{StartDelay: []float64{0, 5000, 200}}},
		{name: "best-static", machine: machine.ButterflyI(), kernel: "tc-skew", n: 70, procs: 12, algo: "best-static",
			opts: sim.Options{Seed: 5}},
		{name: "mod-factoring", machine: machine.KSR1(), kernel: "sor", n: 32, phases: 4, procs: 2, algo: "mod-factoring",
			observe: true, opts: sim.Options{Seed: 1, FlushEverySteps: 1, StartDelay: []float64{800}}},
		{name: "afs-big", machine: machine.KSR1(), kernel: "tc-skew", n: 130, procs: 64, algo: "afs",
			opts: sim.Options{Seed: 2, ActiveProcs: shrink}},
	}
}

// poolResult is what a run must reproduce: its Metrics and the
// digests of its event and provenance streams.
type poolResult struct {
	met          sim.Metrics
	events, prov [32]byte
}

type runFunc func(*machine.Machine, int, sched.Spec, sim.Program, sim.Options) sim.Metrics

func runPooled(m *machine.Machine, p int, spec sched.Spec, prog sim.Program, opts sim.Options) sim.Metrics {
	met, err := sim.RunOpts(m, p, spec, prog, opts)
	if err != nil {
		panic(err)
	}
	return met
}

func (c poolConfig) run(t *testing.T, run runFunc) poolResult {
	t.Helper()
	spec, err := sched.ByName(c.algo)
	if err != nil {
		t.Fatal(err)
	}
	build, _, err := cli.BuildKernel(c.kernel, c.n, c.phases, 1, c.machine)
	if err != nil {
		t.Fatal(err)
	}
	opts := c.opts
	events := telemetry.NewLog[telemetry.Event]()
	prov := telemetry.NewLog[telemetry.Prov]()
	if c.observe {
		opts.Observer = telemetry.TeeObservers(telemetry.ObserveEvents(events, "cycles"), telemetry.ObserveProv(prov))
	}
	res := poolResult{met: run(c.machine, c.procs, spec, build(), opts)}
	if c.observe && (len(events.Records()) == 0 || len(prov.Records()) == 0) {
		t.Fatalf("%s: observed run emitted no events or provenance", c.name)
	}
	for _, d := range []struct {
		v   any
		out *[32]byte
	}{{events.Records(), &res.events}, {prov.Records(), &res.prov}} {
		b, err := json.Marshal(d.v)
		if err != nil {
			t.Fatal(err)
		}
		*d.out = sha256.Sum256(b)
	}
	return res
}

// TestPooledRunsMatchFreshEngine interleaves runs that leave the pooled
// engine in different shapes: every run must reproduce, bit for bit,
// what the same configuration gives on a newly built engine.
func TestPooledRunsMatchFreshEngine(t *testing.T) {
	cfgs := poolConfigs()
	want := make([]poolResult, len(cfgs))
	for i, c := range cfgs {
		want[i] = c.run(t, sim.HeldEngine())
	}
	forward := make([]int, len(cfgs))
	reverse := make([]int, len(cfgs))
	for i := range cfgs {
		forward[i], reverse[i] = i, len(cfgs)-1-i
	}
	shuffled := []int{3, 0, 6, 2, 5, 1, 4, 0, 6, 3}
	for _, order := range [][]int{forward, reverse, shuffled, forward} {
		for _, i := range order {
			c := cfgs[i]
			got := c.run(t, runPooled)
			if !reflect.DeepEqual(got.met, want[i].met) {
				t.Errorf("%s: pooled metrics differ from a fresh engine's:\n got %+v\nwant %+v", c.name, got.met, want[i].met)
			}
			if got.events != want[i].events || got.prov != want[i].prov {
				t.Errorf("%s: pooled event/provenance digests differ from a fresh engine's", c.name)
			}
		}
	}
}

// TestConcurrentRunsMatchSerial calls RunOpts from 8 goroutines at
// once, each cycling through the configurations from a different
// start: every result must equal the serial run's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	cfgs := poolConfigs()
	want := make([]poolResult, len(cfgs))
	specs := make([]sched.Spec, len(cfgs))
	builds := make([]func() sim.Program, len(cfgs))
	for i, c := range cfgs {
		want[i] = c.run(t, runPooled)
		var err error
		if specs[i], err = sched.ByName(c.algo); err != nil {
			t.Fatal(err)
		}
		if builds[i], _, err = cli.BuildKernel(c.kernel, c.n, c.phases, 1, c.machine); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds*len(cfgs); k++ {
				i := (g + k) % len(cfgs)
				c := cfgs[i]
				met, err := sim.RunOpts(c.machine, c.procs, specs[i], builds[i](), c.opts)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(met, want[i].met) {
					t.Errorf("%s: concurrent run differs from the serial run", c.name)
				}
			}
		}(g)
	}
	wg.Wait()
}
