package sim_test

// Stress tests for the tracecheck invariants where they are most
// likely to break: steal-heavy AFS executions. Small iteration counts
// with large processor counts leave most local queues nearly empty
// (every fetch races a thief), and skewed workloads concentrate the
// work so high-indexed owners finish instantly and spend the step
// stealing. Every configuration must still produce a stream where
// each iteration executes exactly once per step, migrates at most
// once, and every steal is legal — and the stream's steal count must
// agree with the provenance records' stolen chunks.

import (
	"fmt"
	"testing"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestTracecheckStealHeavyAFS(t *testing.T) {
	m, err := machine.ByName("symmetry")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kernel    string
		n, phases int
		procs     int
	}{
		// Small N, large P: ~1–2 iterations per local queue.
		{"sor", 24, 4, 16},
		{"gauss", 24, 0, 16},
		// Skewed: the clique concentrates work on low indices, so
		// high-indexed processors steal aggressively every phase.
		{"tc-skew", 64, 0, 8},
		{"tc-skew", 32, 0, 16},
		// Degenerate: fewer iterations than processors on some steps.
		{"gauss", 12, 0, 16},
		{"triangular", 48, 0, 12},
	}
	for _, algo := range []string{"afs", "afs(k=2)", "afs-rand"} {
		spec, err := sched.ByName(algo)
		if err != nil {
			t.Fatal(err)
		}
		totalSteals := 0
		for _, c := range cases {
			name := fmt.Sprintf("%s/%s/n%d/p%d", algo, c.kernel, c.n, c.procs)
			build, _, err := cli.BuildKernel(c.kernel, c.n, c.phases, 1, m)
			if err != nil {
				t.Fatal(err)
			}
			events := telemetry.NewLog[telemetry.Event]()
			prov := telemetry.NewLog[telemetry.Prov]()
			if _, err := sim.RunOpts(m, c.procs, spec, build(), sim.Options{
				Observer: telemetry.TeeObservers(telemetry.ObserveEvents(events, "cycles"), telemetry.ObserveProv(prov)),
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// CheckAFS layers the ⌈N/P⌉ ownership invariant on top of
			// the base checks: every algorithm here uses static initial
			// placement, so un-stolen executions must land on their
			// owner even under steal-heavy pressure.
			rep := telemetry.CheckAFS(events.Records(), c.procs)
			if err := rep.Err(); err != nil {
				t.Errorf("%s: tracecheck failed: %v", name, err)
			}
			steals, stolenChunks := 0, 0
			for _, e := range events.Records() {
				if e.Kind == telemetry.KindSteal {
					steals++
				}
			}
			for _, r := range prov.Records() {
				if r.Stolen {
					stolenChunks++
				}
			}
			if steals != stolenChunks {
				t.Errorf("%s: %d steal events vs %d stolen provenance chunks",
					name, steals, stolenChunks)
			}
			totalSteals += steals
		}
		// The suite must actually exercise stealing, or the invariants
		// were never under pressure.
		if totalSteals == 0 {
			t.Errorf("%s: no steals across the whole stress suite", algo)
		}
	}
}
