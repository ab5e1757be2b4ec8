package core

// Race-sensitive telemetry tests for the real goroutine runtime: CI
// runs these under -race, so concurrent event emission and registry
// updates from live workers are exercised for real.

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// bodySink gives every iteration its own slot, so the busy-work write
// below is race-free (iterations within a phase are distinct; phases
// are barrier-separated).
var bodySink [128]float64

func imbalancedBody(ph, i int) {
	n := 20
	if i < 16 {
		n = 2000
	}
	x := 1.0
	for k := 0; k < n; k++ {
		x += x * 1e-9
	}
	bodySink[i%len(bodySink)] = x
}

// TestRealRuntimeTelemetryCheck: the real runtime's event stream
// passes the paper's invariants for central-queue, AFS and
// mod-factoring families, the stream agrees with Stats, and every
// event but a phase boundary is the exec or the dispatch event of
// exactly one chunk record.
func TestRealRuntimeTelemetryCheck(t *testing.T) {
	for _, name := range []string{"ss", "gss", "static", "afs", "afs-le", "mod-factoring"} {
		spec, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		stream := telemetry.NewLog[telemetry.Event]()
		prov := telemetry.NewLog[telemetry.Prov]()
		reg := telemetry.NewRegistry()
		cfg := Config{Procs: 4, Spec: spec, Observer: telemetry.TeeObservers(telemetry.ObserveEvents(stream, "ns"),
			telemetry.ObserveProv(prov), telemetry.ObserveMetrics(reg, "ns"))}
		st, err := Run(cfg, 5, func(int) int { return 128 }, imbalancedBody)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events := stream.Records()
		rep := telemetry.Check(events)
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if rep.Steps != 5 {
			t.Errorf("%s: %d steps seen, want 5", name, rep.Steps)
		}
		views := map[telemetry.Event]int{}
		for _, p := range prov.Records() {
			views[p.ExecEvent()]++
			if e, ok := p.DispatchEvent("ns"); ok {
				views[e]++
			}
		}
		var steals, execIters int64
		for _, e := range events {
			switch e.Kind {
			case telemetry.KindSteal:
				steals++
			case telemetry.KindExec:
				execIters += int64(e.Hi - e.Lo)
			}
			if e.Kind != telemetry.KindPhaseBegin && e.Kind != telemetry.KindPhaseEnd {
				if views[e] == 0 {
					t.Errorf("%s: event %+v is no record's view", name, e)
				}
				views[e]--
			}
		}
		for e, n := range views {
			if n > 0 {
				t.Errorf("%s: record view %+v missing from the stream", name, e)
			}
		}
		if steals != st.Steals {
			t.Errorf("%s: %d steal events vs %d stats steals", name, steals, st.Steals)
		}
		if execIters != st.Iterations {
			t.Errorf("%s: %d exec-event iterations vs %d stats iterations", name, execIters, st.Iterations)
		}
		series := reg.Series()
		if len(series) != 5 {
			t.Fatalf("%s: %d registry samples, want 5", name, len(series))
		}
		last := series[len(series)-1].Values
		if int64(last["iterations"]) != st.Iterations {
			t.Errorf("%s: registry iterations %v vs stats %d", name, last["iterations"], st.Iterations)
		}
	}
}

// TestTelemetryOffCostsNothingExtra: with no sink and no registry the
// runner takes the uninstrumented paths (guarded by nil checks), and
// stats still come out right.
func TestTelemetryOffCostsNothingExtra(t *testing.T) {
	st, err := Run(Config{Procs: 4, Spec: sched.SpecAFS()}, 3,
		func(int) int { return 64 }, func(ph, i int) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 3*64 {
		t.Errorf("iterations = %d", st.Iterations)
	}
}

// TestRealRuntimeChromeExport: a real-runtime stream renders to a
// non-empty Chrome trace with per-worker tracks.
func TestRealRuntimeChromeExport(t *testing.T) {
	stream := telemetry.NewLog[telemetry.Event]()
	if _, err := Run(Config{Procs: 2, Spec: sched.SpecAFS(), Observer: telemetry.ObserveEvents(stream, "ns")}, 2,
		func(int) int { return 32 }, imbalancedBody); err != nil {
		t.Fatal(err)
	}
	var b testWriter
	err := telemetry.WriteChromeTrace(&b, stream.Records(), telemetry.ChromeOptions{
		Label: "core test", Procs: 2, TimeScale: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.n == 0 {
		t.Error("empty chrome trace")
	}
}

type testWriter struct{ n int }

func (w *testWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
