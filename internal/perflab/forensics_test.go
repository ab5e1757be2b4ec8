package perflab

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func simCase(algo string) Case {
	return Case{Substrate: SubstrateSim, Machine: "iris", Kernel: "sor", Algo: algo,
		N: 48, Phases: 4, Procs: 4, Repeats: 2, Gate: true}
}

func TestRunnerAttachesForensics(t *testing.T) {
	r := &Runner{BaseSeed: 1}
	reg := NewRegistry()
	cases := []Case{
		reg.Add(simCase("afs")),
		reg.Add(Case{Substrate: SubstrateReal, Kernel: "gauss", Algo: "afs",
			N: 48, Phases: 4, Procs: 2, Repeats: 2}),
		reg.Add(Case{Substrate: SubstrateReal, Kernel: "sor", Algo: "afs",
			N: 96, Phases: 8, Procs: 2, Repeats: 2}),
	}
	results, err := r.Run(cases)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		f := res.Forensics
		if f == nil {
			t.Fatalf("%s: no forensics digest", res.ID)
		}
		wantUnit := "cycles"
		if res.Substrate == SubstrateReal {
			wantUnit = "ns"
		}
		if f.Unit != wantUnit {
			t.Errorf("%s: unit %q, want %q", res.ID, f.Unit, wantUnit)
		}
		sum := 0.0
		for _, v := range f.Buckets {
			sum += v
		}
		// The average per-processor buckets must sum to the makespan.
		if f.Makespan <= 0 || math.Abs(sum-f.Makespan) > 1e-6*f.Makespan {
			t.Errorf("%s: buckets sum %g vs makespan %g", res.ID, sum, f.Makespan)
		}
		if f.TopOverhead == "" || f.TopOverhead == "compute" {
			t.Errorf("%s: bad top overhead %q", res.ID, f.TopOverhead)
		}
	}
	// A stream of separate submissions has no single makespan, so it
	// carries counters but no digest.
	stream, err := r.Run([]Case{reg.Add(Case{Substrate: SubstrateReal, Kernel: "many-small-loops",
		Algo: "executor", N: 64, Phases: 4, Procs: 2, Repeats: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if stream[0].Forensics != nil || stream[0].Counters == nil {
		t.Errorf("%s: digest %+v, counters %v; want no digest and counters", stream[0].ID,
			stream[0].Forensics, stream[0].Counters)
	}
	// The digest must survive the baseline JSON round trip.
	dir := t.TempDir()
	b := NewBaseline(dir, true, 1, results)
	path, err := WriteNext(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		lc := got.Lookup(res.ID)
		if lc == nil || lc.Forensics == nil {
			t.Fatalf("%s: forensics digest lost in baseline round trip", res.ID)
		}
		if math.Abs(lc.Forensics.Makespan-res.Forensics.Makespan) > 1e-9 {
			t.Errorf("%s: makespan %g != %g after round trip",
				res.ID, lc.Forensics.Makespan, res.Forensics.Makespan)
		}
	}
}

// TestDigestDescribesMedianRepeat re-simulates every repeat of a
// case whose repeats differ (each repeat perturbs the start-jitter
// seed) and requires the stored digest and counters to be the median
// repeat's, not the final one's.
func TestDigestDescribesMedianRepeat(t *testing.T) {
	r := &Runner{BaseSeed: 1}
	c := NewRegistry().Add(Case{Substrate: SubstrateSim, Machine: "iris", Kernel: "tc-skew", Algo: "gss",
		N: 64, Phases: 1, Procs: 8, Repeats: 5})
	res, err := r.runCase(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.ByName(c.Machine)
	if err != nil {
		t.Fatal(err)
	}
	build, _, err := cli.BuildKernel(c.Kernel, c.N, c.Phases, int64(r.seedFor(c.ID)), m)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sched.ByName(c.Algo)
	if err != nil {
		t.Fatal(err)
	}
	makespans := make([]float64, c.Repeats)
	waits := make([]float64, c.Repeats)
	med := -1
	for rep := range makespans {
		reg, prov := telemetry.NewRegistry(), telemetry.NewLog[telemetry.Prov]()
		met, err := sim.RunOpts(m, c.Procs, spec, build(), sim.Options{
			Seed:     r.seedFor(c.ID) + uint64(rep),
			Observer: telemetry.TeeObservers(telemetry.ObserveMetrics(reg, "cycles"), telemetry.ObserveProv(prov)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if met.Seconds != res.Samples[rep] {
			t.Fatalf("repeat %d: re-simulated %gs, runner sampled %gs", rep, met.Seconds, res.Samples[rep])
		}
		makespans[rep] = forensicsSummary(c, prov.Records()).Makespan
		waits[rep] = currentValues(reg)["queue_wait_cycles_sum"]
		if met.Seconds == res.Summary.Median {
			med = rep
		}
	}
	last := c.Repeats - 1
	if med < 0 || med == last || makespans[med] == makespans[last] {
		t.Fatalf("case does not separate the median repeat from the final one: samples %v, makespans %v",
			res.Samples, makespans)
	}
	if got := res.Forensics.Makespan; got != makespans[med] {
		t.Errorf("digest makespan %g, want the median repeat's %g (final repeat: %g)", got, makespans[med], makespans[last])
	}
	if got := res.Counters["queue_wait_cycles_sum"]; got != waits[med] {
		t.Errorf("counter queue_wait_cycles_sum %g, want the median repeat's %g (all repeats: %v)", got, waits[med], waits)
	}
}

func TestWriteGateForensics(t *testing.T) {
	r := &Runner{BaseSeed: 1}
	reg := NewRegistry()
	c := reg.Add(simCase("gss"))
	baseRes, err := r.Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old := NewBaseline(dir, true, 1, baseRes)
	old.Seq = 1

	// Same case with an injected 1.5× slowdown: a guaranteed gate
	// failure.
	rSlow := &Runner{BaseSeed: 1, Inject: map[string]float64{c.ID: 1.5}}
	slowRes, err := rSlow.Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	current := NewBaseline(dir, true, 1, slowRes)
	current.Seq = 2

	cmp := Compare(old, current, 0)
	if len(cmp.Regressions()) != 1 {
		t.Fatalf("expected 1 regression, got %d", len(cmp.Regressions()))
	}
	out := filepath.Join(dir, "forensics")
	paths, err := WriteGateForensics(out, cmp, old, current, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("expected 1 artifact, got %d", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"Gate regression forensics", "Attribution", "cache-reload",
		"Full trace analysis", "Critical path",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("artifact missing %q", want)
		}
	}
}
