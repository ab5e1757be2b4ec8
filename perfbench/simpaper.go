package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The sim-paper shapes are the perflab gate set: Iris, N=200, 8
// phases, 8 simulated processors, each kernel under each scheduler.
const (
	simN      = 200
	simPhases = 8
	simProcs  = 8
	// simSeeds is the pool of start-jitter seeds the expected table
	// covers; the run's seed picks from it.
	simSeeds = 16
)

var (
	simKernels = [...]struct {
		name  string
		layer layerID
	}{{"gauss", lSimGauss}, {"sor", lSimSOR}, {"tc-skew", lSimTC}}
	simAlgos = [...]string{"afs", "gss", "factoring"}
)

// expectedJSON maps "kernel/algo/seed" to the simulated cycles; make it
// with -gen-expected after a change that is meant to alter schedules.
//
//go:embed sim_expected.json
var expectedJSON []byte

type simConfig struct {
	kernel, algo string
	layer        layerID
	build        func() sim.Program
	spec         sched.Spec
}

func (c simConfig) key(seed uint64) string { return fmt.Sprintf("%s/%s/%d", c.kernel, c.algo, seed) }

func simConfigs(m *machine.Machine) ([]simConfig, error) {
	var cfgs []simConfig
	for _, k := range simKernels {
		build, _, err := cli.BuildKernel(k.name, simN, simPhases, 1, m)
		if err != nil {
			return nil, err
		}
		for _, a := range simAlgos {
			spec, err := sched.ByName(a)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, simConfig{kernel: k.name, algo: a, layer: k.layer, build: build, spec: spec})
		}
	}
	return cfgs, nil
}

// simInst is sim-paper: sim.RunOpts on one goroutine, cycling in a
// fixed order through the nine configurations. It is the one workload
// that exercises sim, machine and sched without core or serve.
type simInst struct {
	m        *machine.Machine
	cfgs     []simConfig
	expected map[string]float64
	rng      *rand.Rand
	next     int

	// Counts over traced ops.
	ops, syncOps, accesses int64
}

func setupSim(seed int64) (instance, error) {
	m := machine.Iris()
	cfgs, err := simConfigs(m)
	if err != nil {
		return nil, err
	}
	s := &simInst{m: m, cfgs: cfgs, rng: rand.New(rand.NewSource(seed))}
	if err := json.Unmarshal(expectedJSON, &s.expected); err != nil {
		return nil, fmt.Errorf("sim_expected.json: %w", err)
	}
	for _, c := range cfgs {
		for seed := uint64(1); seed <= simSeeds; seed++ {
			if _, ok := s.expected[c.key(seed)]; !ok {
				return nil, fmt.Errorf("sim_expected.json has no entry %q", c.key(seed))
			}
		}
	}
	for range cfgs {
		if err := s.op(0, &opCtx{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *simInst) clients() int { return 1 }

func (s *simInst) op(_ int, o *opCtx) error {
	c := s.cfgs[s.next%len(s.cfgs)]
	s.next++
	seed := uint64(1 + s.rng.Intn(simSeeds))
	t0 := now()
	prog := c.build()
	t1 := now()
	met, err := sim.RunOpts(s.m, simProcs, c.spec, prog, sim.Options{Seed: seed})
	if err != nil {
		return err
	}
	t2 := now()
	want := s.expected[c.key(seed)]
	bad := math.Abs(met.Cycles-want) > 1e-9*math.Abs(want)
	t3 := now()
	if o.traced() {
		o.span(lSimBuild, t0, t1)
		o.span(c.layer, t1, t2)
		o.span(lCheck, t2, t3)
		s.ops++
		s.syncOps += int64(met.TotalSyncOps())
		s.accesses += int64(met.Hits + met.Misses)
	}
	if bad {
		return fmt.Errorf("%w: %s simulated %v cycles, want %v", errWrongOutput, c.key(seed), met.Cycles, want)
	}
	return nil
}

func (s *simInst) layerMetrics(t *traceSet) map[string]float64 {
	m := map[string]float64{"sim.build_ms": t.durQ(lSimBuild, 0.5)}
	for _, k := range simKernels {
		m["sim.run_ms."+k.name] = t.durQ(k.layer, 0.5)
	}
	if s.ops > 0 {
		m["sim.sync_ops_per_op"] = float64(s.syncOps) / float64(s.ops)
		m["sim.cache_accesses_per_op"] = float64(s.accesses) / float64(s.ops)
	}
	return m
}

func (s *simInst) close() {}

// writeExpected simulates every configuration under every pool seed
// and writes the cycles table.
func writeExpected(path string) error {
	m := machine.Iris()
	cfgs, err := simConfigs(m)
	if err != nil {
		return err
	}
	table := make(map[string]float64)
	for _, c := range cfgs {
		for seed := uint64(1); seed <= simSeeds; seed++ {
			met, err := sim.RunOpts(m, simProcs, c.spec, c.build(), sim.Options{Seed: seed})
			if err != nil {
				return fmt.Errorf("%s: %w", c.key(seed), err)
			}
			table[c.key(seed)] = met.Cycles
		}
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
