package perflab

import (
	"strings"
	"testing"
)

func TestRegistryIDsAndFilter(t *testing.T) {
	r := DefaultRegistry(true)
	cases := r.Cases()
	if len(cases) == 0 {
		t.Fatal("empty default registry")
	}
	seen := make(map[string]bool)
	for _, c := range cases {
		if c.ID == "" {
			t.Fatalf("case with empty ID: %+v", c)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate case ID %q", c.ID)
		}
		seen[c.ID] = true
		if c.Repeats < 1 {
			t.Errorf("%s: repeats %d < 1", c.ID, c.Repeats)
		}
		if c.Gate && c.Substrate != SubstrateSim {
			t.Errorf("%s: gate-eligible case on non-deterministic substrate %q", c.ID, c.Substrate)
		}
	}

	sims, err := r.Filter("", SubstrateSim, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sims {
		if c.Substrate != SubstrateSim {
			t.Errorf("substrate filter leaked %s", c.ID)
		}
	}
	afs, err := r.Filter("afs", "both", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(afs) == 0 {
		t.Fatal("no afs cases")
	}
	for _, c := range afs {
		if !strings.Contains(c.ID, "afs") {
			t.Errorf("pattern filter leaked %s", c.ID)
		}
	}
	if _, err := r.Filter("(", "both", false); err == nil {
		t.Error("bad regexp accepted")
	}
	if _, err := r.Filter("", "quantum", false); err == nil {
		t.Error("unknown substrate accepted")
	}
}

// TestShortAndFullShareIDs guards the gate's core assumption: a
// baseline recorded at one scale must be comparable with a run at the
// same scale later, and case IDs must not encode problem size.
func TestShortAndFullShareIDs(t *testing.T) {
	short, full := DefaultRegistry(true).Cases(), DefaultRegistry(false).Cases()
	if len(short) != len(full) {
		t.Fatalf("short has %d cases, full %d", len(short), len(full))
	}
	for i := range short {
		if short[i].ID != full[i].ID {
			t.Errorf("ID drift at %d: short %q full %q", i, short[i].ID, full[i].ID)
		}
	}
}

// tinyCase is a fast deterministic simulator case for runner tests.
func tinyCase(t *testing.T, algo string, gate bool) Case {
	t.Helper()
	r := NewRegistry()
	return r.Add(Case{Substrate: SubstrateSim, Machine: "iris", Kernel: "sor", Algo: algo,
		N: 24, Phases: 3, Procs: 4, Repeats: 3, Gate: gate})
}

func TestRunnerSimCase(t *testing.T) {
	c := tinyCase(t, "afs", true)
	res, err := (&Runner{}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	r := res[0]
	if len(r.Samples) != c.Repeats {
		t.Fatalf("got %d samples, want %d", len(r.Samples), c.Repeats)
	}
	for _, s := range r.Samples {
		if s <= 0 {
			t.Errorf("non-positive sample %v", s)
		}
	}
	if r.Summary.Median <= 0 || r.Summary.N != c.Repeats {
		t.Errorf("bad summary %+v", r.Summary)
	}
	if len(r.Counters) == 0 {
		t.Error("no telemetry counters collected")
	}
	for _, key := range []string{"steals", "local_ops", "central_ops"} {
		if _, ok := r.Counters[key]; !ok {
			t.Errorf("counter %q missing (have %v)", key, r.Counters)
		}
	}
}

func TestRunnerDeterministicAcrossRuns(t *testing.T) {
	c := tinyCase(t, "gss", true)
	a, err := (&Runner{BaseSeed: 5}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Runner{BaseSeed: 5}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a[0].Samples {
		if a[0].Samples[i] != b[0].Samples[i] {
			t.Fatalf("sim samples differ across identical runs: %v vs %v",
				a[0].Samples, b[0].Samples)
		}
	}
	if a[0].Summary != b[0].Summary {
		t.Fatalf("summaries differ: %+v vs %+v", a[0].Summary, b[0].Summary)
	}
}

func TestRunnerRealCase(t *testing.T) {
	r := NewRegistry()
	c := r.Add(Case{Substrate: SubstrateReal, Kernel: "sor", Algo: "afs",
		N: 32, Phases: 2, Procs: 2, Repeats: 2, Warmup: 1})
	res, err := (&Runner{}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Samples) != 2 {
		t.Fatalf("got %d samples", len(res[0].Samples))
	}
	for _, s := range res[0].Samples {
		if s <= 0 {
			t.Errorf("non-positive wall time %v", s)
		}
	}
}

func TestRunnerErrors(t *testing.T) {
	bad := []Case{
		{ID: "x", Substrate: "quantum", Kernel: "sor", Algo: "afs", N: 8, Procs: 2, Repeats: 1},
		{ID: "x", Substrate: SubstrateSim, Machine: "iris", Kernel: "nope", Algo: "afs", N: 8, Phases: 1, Procs: 2, Repeats: 1},
		{ID: "x", Substrate: SubstrateSim, Machine: "iris", Kernel: "sor", Algo: "nope", N: 8, Phases: 1, Procs: 2, Repeats: 1},
		{ID: "x", Substrate: SubstrateSim, Machine: "mars", Kernel: "sor", Algo: "afs", N: 8, Phases: 1, Procs: 2, Repeats: 1},
		{ID: "x", Substrate: SubstrateReal, Kernel: "warp-drive", Algo: "afs", N: 8, Phases: 1, Procs: 2, Repeats: 1},
		{ID: "x", Substrate: SubstrateReal, Kernel: "sor", Algo: "nope", N: 8, Phases: 1, Procs: 2, Repeats: 1},
		{ID: "x", Substrate: SubstrateSim, Machine: "iris", Kernel: "sor", Algo: "afs", N: 8, Phases: 1, Procs: 2, Repeats: 0},
	}
	for _, c := range bad {
		if _, err := (&Runner{}).Run([]Case{c}); err == nil {
			t.Errorf("case %+v: expected error", c)
		}
	}
}

func TestInjectMultipliesSamples(t *testing.T) {
	c := tinyCase(t, "afs", true)
	clean, err := (&Runner{}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := (&Runner{Inject: map[string]float64{c.ID: 2}}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean[0].Samples {
		want := clean[0].Samples[i] * 2
		if got := slowed[0].Samples[i]; got != want {
			t.Errorf("sample %d: got %v, want %v", i, got, want)
		}
	}
}
