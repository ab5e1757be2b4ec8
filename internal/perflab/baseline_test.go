package perflab

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
)

// synthetic builds a baseline from (id, samples) pairs without running
// anything.
func synthetic(seq int, cases map[string][]float64) *Baseline {
	b := &Baseline{Schema: SchemaVersion, Seq: seq, GitSHA: "test"}
	ids := make([]string, 0, len(cases))
	for id := range cases {
		ids = append(ids, id)
	}
	// map order is random; keep the file stable for the test
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		xs := cases[id]
		b.Cases = append(b.Cases, CaseResult{
			Case:    Case{ID: id, Substrate: SubstrateSim, Kernel: "k", Algo: "a", Repeats: len(xs), Gate: true},
			Samples: xs,
			Summary: stats.Summarize(xs, 1),
		})
	}
	return b
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := synthetic(0, map[string][]float64{
		"sim/a": {1.0, 1.1, 0.9},
		"sim/b": {2.0, 2.0, 2.0},
	})
	b.NumCPU, b.GOMAXPROCS = 4, 2
	path, err := WriteNext(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_1.json" {
		t.Fatalf("first baseline at %s, want BENCH_1.json", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || got.Schema != SchemaVersion || len(got.Cases) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.NumCPU != 4 || got.GOMAXPROCS != 2 || got.UsableCPUs() != 2 {
		t.Errorf("round trip CPUs: num_cpu %d, gomaxprocs %d, usable %d; want 4, 2, 2",
			got.NumCPU, got.GOMAXPROCS, got.UsableCPUs())
	}
	if nb := NewBaseline(dir, true, 1, nil); nb.GOMAXPROCS != runtime.GOMAXPROCS(0) || nb.NumCPU != runtime.NumCPU() {
		t.Errorf("NewBaseline stamped num_cpu %d, gomaxprocs %d", nb.NumCPU, nb.GOMAXPROCS)
	}
	for i := range b.Cases {
		if got.Cases[i].ID != b.Cases[i].ID {
			t.Errorf("case %d ID %q, want %q", i, got.Cases[i].ID, b.Cases[i].ID)
		}
		if got.Cases[i].Summary != b.Cases[i].Summary {
			t.Errorf("case %d summary drifted: %+v vs %+v", i, got.Cases[i].Summary, b.Cases[i].Summary)
		}
		for j, s := range b.Cases[i].Samples {
			if got.Cases[i].Samples[j] != s {
				t.Errorf("case %d sample %d = %v, want %v", i, j, got.Cases[i].Samples[j], s)
			}
		}
	}

	// Numbering is append-only and Latest picks the highest n.
	p2, err := WriteNext(dir, synthetic(0, map[string][]float64{"sim/a": {1.0}}))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p2) != "BENCH_2.json" {
		t.Fatalf("second baseline at %s", p2)
	}
	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 2 {
		t.Fatalf("Latest picked seq %d", latest.Seq)
	}
	all, err := LoadAll(dir)
	if err != nil || len(all) != 2 || all[0].Seq != 1 || all[1].Seq != 2 {
		t.Fatalf("LoadAll = %v baselines, err %v", len(all), err)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	b, err := Latest(t.TempDir())
	if err != nil || b != nil {
		t.Fatalf("empty dir: baseline %v, err %v", b, err)
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999, "cases": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("newer schema accepted: %v", err)
	}
}

// TestGateCatchesInjectedRegression is the acceptance scenario: a
// synthetic ≥20% slowdown on one case must gate, an unchanged re-run
// must pass.
func TestGateCatchesInjectedRegression(t *testing.T) {
	old := synthetic(1, map[string][]float64{
		"sim/fast": {1.00, 1.01, 0.99},
		"sim/slow": {5.00, 5.02, 4.98},
	})

	// Unchanged re-run: identical distributions → gate passes.
	same := synthetic(2, map[string][]float64{
		"sim/fast": {1.00, 1.01, 0.99},
		"sim/slow": {5.00, 5.02, 4.98},
	})
	cmp := Compare(old, same, 0)
	if err := cmp.GateErr(); err != nil {
		t.Fatalf("unchanged run gated: %v", err)
	}
	if n := len(cmp.Regressions()); n != 0 {
		t.Fatalf("unchanged run has %d regressions", n)
	}

	// 25% slowdown injected into one case → that case, and only that
	// case, regresses and the gate fails.
	bad := synthetic(3, map[string][]float64{
		"sim/fast": {1.25, 1.2625, 1.2375},
		"sim/slow": {5.00, 5.02, 4.98},
	})
	cmp = Compare(old, bad, 0)
	regs := cmp.Regressions()
	if len(regs) != 1 || regs[0].ID != "sim/fast" {
		t.Fatalf("regressions = %+v, want exactly sim/fast", regs)
	}
	if err := cmp.GateErr(); err == nil {
		t.Fatal("gate passed an injected 25% regression")
	} else if !strings.Contains(err.Error(), "sim/fast") {
		t.Fatalf("gate error does not name the case: %v", err)
	}

	// An improvement must not gate.
	good := synthetic(4, map[string][]float64{
		"sim/fast": {0.70, 0.707, 0.693},
		"sim/slow": {5.00, 5.02, 4.98},
	})
	cmp = Compare(old, good, 0)
	if err := cmp.GateErr(); err != nil {
		t.Fatalf("improvement gated: %v", err)
	}
	if n := len(cmp.Improvements()); n != 1 {
		t.Fatalf("got %d improvements, want 1", n)
	}
}

// TestGateEndToEndViaRunner exercises the full loop the CLI drives:
// run → write → reload → re-run with injection → compare.
func TestGateEndToEndViaRunner(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	c := reg.Add(Case{Substrate: SubstrateSim, Machine: "iris", Kernel: "sor", Algo: "afs",
		N: 24, Phases: 3, Procs: 4, Repeats: 3, Gate: true})

	results, err := (&Runner{}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteNext(dir, NewBaseline(dir, true, 1, results)); err != nil {
		t.Fatal(err)
	}
	baseline, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged re-run (same seeds) → pass.
	again, err := (&Runner{}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare(baseline, &Baseline{Seq: 2, Cases: again}, 0)
	if err := cmp.GateErr(); err != nil {
		t.Fatalf("deterministic re-run gated: %v", err)
	}

	// Injected 25% slowdown → fail.
	slowed, err := (&Runner{Inject: map[string]float64{c.ID: 1.25}}).Run([]Case{c})
	if err != nil {
		t.Fatal(err)
	}
	cmp = Compare(baseline, &Baseline{Seq: 2, Cases: slowed}, 0)
	if cmp.GateErr() == nil {
		t.Fatal("gate passed an injected 25% slowdown")
	}
}

// TestCheckCompatible: the gate must refuse a baseline recorded at a
// different scale or seed instead of producing bogus deltas; pre-seed
// baselines (Seed == 0) are tolerated.
func TestCheckCompatible(t *testing.T) {
	b := &Baseline{Seq: 3, Short: true, Seed: 1}
	if err := b.CheckCompatible(true, 1); err != nil {
		t.Fatalf("matching scale+seed rejected: %v", err)
	}
	if err := b.CheckCompatible(false, 1); err == nil || !strings.Contains(err.Error(), "short") {
		t.Fatalf("scale mismatch accepted: %v", err)
	}
	if err := b.CheckCompatible(true, 2); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch accepted: %v", err)
	}
	legacy := &Baseline{Seq: 1, Short: true} // written before Seed existed
	if err := legacy.CheckCompatible(true, 42); err != nil {
		t.Fatalf("legacy baseline without seed rejected: %v", err)
	}
}

// TestZeroBaselineRegresses: a case whose old median is zero must still
// gate when the new median is nonzero — there is no ratio to test, so
// "unchanged" would hide an unbounded slowdown.
func TestZeroBaselineRegresses(t *testing.T) {
	old := synthetic(1, map[string][]float64{"sim/zero": {0, 0, 0}})
	bad := synthetic(2, map[string][]float64{"sim/zero": {0.5, 0.5, 0.5}})
	cmp := Compare(old, bad, 0)
	if regs := cmp.Regressions(); len(regs) != 1 || regs[0].ID != "sim/zero" {
		t.Fatalf("zero→nonzero did not regress: %+v", cmp.Deltas)
	}
	if err := cmp.GateErr(); err == nil {
		t.Fatal("gate passed a regression from a zero baseline")
	}

	// zero→zero stays unchanged.
	same := synthetic(3, map[string][]float64{"sim/zero": {0, 0, 0}})
	cmp = Compare(old, same, 0)
	if err := cmp.GateErr(); err != nil {
		t.Fatalf("zero→zero gated: %v", err)
	}
}

func TestCompareNewAndRemoved(t *testing.T) {
	old := synthetic(1, map[string][]float64{"sim/a": {1}, "sim/gone": {2}})
	new_ := synthetic(2, map[string][]float64{"sim/a": {1}, "sim/fresh": {3}})
	cmp := Compare(old, new_, 0)
	verdicts := make(map[string]Verdict)
	for _, d := range cmp.Deltas {
		verdicts[d.ID] = d.Verdict
	}
	if verdicts["sim/fresh"] != VerdictNew || verdicts["sim/gone"] != VerdictRemoved ||
		verdicts["sim/a"] != VerdictUnchanged {
		t.Fatalf("verdicts = %v", verdicts)
	}
	// New/removed cases never gate.
	if err := cmp.GateErr(); err != nil {
		t.Fatalf("new/removed gated: %v", err)
	}
}

// TestNoisyHostDoesNotGate: wide overlapping CIs suppress a >threshold
// median movement (the anti-flake rule for wall-clock cases).
func TestNoisyHostDoesNotGate(t *testing.T) {
	old := synthetic(1, map[string][]float64{"sim/noisy": {1.0, 0.5, 1.5, 0.8, 1.2}})
	new_ := synthetic(2, map[string][]float64{"sim/noisy": {1.15, 0.6, 1.7, 0.9, 1.4}})
	cmp := Compare(old, new_, 0)
	if err := cmp.GateErr(); err != nil {
		t.Fatalf("noisy case gated despite overlapping CIs: %v", err)
	}
}

func TestWriteReportAndTrends(t *testing.T) {
	old := synthetic(1, map[string][]float64{"sim/a": {1.0, 1.0, 1.0}})
	new_ := synthetic(2, map[string][]float64{"sim/a": {1.5, 1.5, 1.5}})
	var b strings.Builder
	cmp := Compare(old, new_, 0)
	WriteReport(&b, cmp, old, new_)
	out := b.String()
	for _, want := range []string{"GATE: FAIL", "REGRESSION", "sim/a", "+50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	dir := t.TempDir()
	paths, err := WriteTrendSVGs(dir, []*Baseline{old, new_})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("got %d SVGs", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "polyline") {
		t.Errorf("trend SVG malformed: %.120s", data)
	}
}

// TestReportWarnsOversubscribedRealCases: the report prints one warning
// line per real case with more workers than a recording host's usable
// CPUs (min of num_cpu and gomaxprocs; num_cpu alone for old
// baselines), and none for simulator cases.
func TestReportWarnsOversubscribedRealCases(t *testing.T) {
	mk := func(seq, numCPU, gomaxprocs int) *Baseline {
		b := synthetic(seq, map[string][]float64{
			"real/x/p2": {1, 1, 1}, "real/y/p4": {1, 1, 1}, "real/z/p1": {1, 1, 1}, "sim/w/p8": {1, 1, 1},
		})
		procs := map[string]int{"real/x/p2": 2, "real/y/p4": 4, "real/z/p1": 1, "sim/w/p8": 8}
		for i := range b.Cases {
			c := &b.Cases[i]
			c.Procs = procs[c.ID]
			if strings.HasPrefix(c.ID, "real/") {
				c.Substrate = SubstrateReal
			}
		}
		b.NumCPU, b.GOMAXPROCS = numCPU, gomaxprocs
		return b
	}
	old, new_ := mk(1, 1, 0), mk(2, 4, 2)
	var b strings.Builder
	WriteReport(&b, Compare(old, new_, 0), old, new_)
	var warnings []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "warning:") {
			warnings = append(warnings, line)
		}
	}
	if len(warnings) != 2 {
		t.Fatalf("got %d warning lines, want 2 (real/x, real/y):\n%s", len(warnings), b.String())
	}
	if !strings.Contains(warnings[0], "real/x/p2 runs 2 workers") || !strings.Contains(warnings[0], "baseline 1: 1)") {
		t.Errorf("real/x warning: %s", warnings[0])
	}
	if !strings.Contains(warnings[1], "real/y/p4 runs 4 workers") || !strings.Contains(warnings[1], "baseline 1: 1, baseline 2: 2") {
		t.Errorf("real/y warning: %s", warnings[1])
	}
}
