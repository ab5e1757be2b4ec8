package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// slowBody burns enough time per iteration that steals and queue-depth
// samples actually happen at small worker counts.
func slowBody(ph, i int) {
	x := 1.0
	for k := 0; k < 2000; k++ {
		x += float64(k) * x / 1e9
	}
	_ = x
}

func TestProvenanceCoversEveryIteration(t *testing.T) {
	for _, name := range []string{"afs", "gss", "static", "mod-factoring"} {
		spec, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prov := telemetry.NewLog[telemetry.Prov]()
		const n, phases, p = 96, 3, 4
		_, err = Run(Config{Procs: p, Spec: spec, Observer: telemetry.ObserveProv(prov)}, phases,
			func(int) int { return n }, slowBody)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		covered := make(map[int]int)
		for _, r := range prov.Records() {
			if r.Proc < 0 || r.Proc >= p {
				t.Errorf("%s: record with bad proc %d", name, r.Proc)
			}
			if r.Stolen && r.Owner == r.Proc {
				t.Errorf("%s: stolen chunk owned by the thief (proc %d)", name, r.Proc)
			}
			if r.End < r.Start || r.Compute < 0 || r.QueueWait < 0 {
				t.Errorf("%s: negative time in record %+v", name, r)
			}
			for i := r.Lo; i < r.Hi; i++ {
				covered[r.Step*n+i]++
			}
		}
		if len(covered) != n*phases {
			t.Errorf("%s: provenance covers %d of %d iterations", name, len(covered), n*phases)
		}
		for key, times := range covered {
			if times != 1 {
				t.Errorf("%s: iteration key %d covered %d times", name, key, times)
			}
		}
	}
}

func TestProvenanceStolenMatchesStealCount(t *testing.T) {
	spec, _ := sched.ByName("afs")
	prov := telemetry.NewLog[telemetry.Prov]()
	// Skew all the work onto low iterations so high-indexed workers
	// must steal.
	st, err := Run(Config{Procs: 4, Spec: spec, Observer: telemetry.ObserveProv(prov)}, 2,
		func(int) int { return 64 },
		func(ph, i int) {
			reps := 1
			if i < 16 {
				reps = 40
			}
			for r := 0; r < reps; r++ {
				slowBody(ph, i)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for _, r := range prov.Records() {
		if r.Stolen {
			stolen++
		}
	}
	if int64(stolen) != st.Steals {
		t.Errorf("stolen provenance records = %d, Stats.Steals = %d", stolen, st.Steals)
	}
}

// TestStolenProvIsItsSteal: a stolen chunk's Prov is the one record of
// its steal — Owner is the victim, QueueWait the steal's length, and
// the steal, [Start-QueueWait, Start], began after the submission did —
// so the event stream's steals and the registry's steal_latency_ns are
// views of the stolen records, one each, and with no body panicking
// both count Stats.Steals.
func TestStolenProvIsItsSteal(t *testing.T) {
	evs := telemetry.NewLog[telemetry.Event]()
	prov := telemetry.NewLog[telemetry.Prov]()
	reg := telemetry.NewRegistry()
	// Worker 0 starts late, so the others drain their own blocks and
	// steal from its queue.
	st, err := Run(Config{Procs: 4, Spec: sched.SpecAFS(), StartDelay: []time.Duration{10 * time.Millisecond},
		Observer: telemetry.TeeObservers(telemetry.ObserveEvents(evs, "ns"), telemetry.ObserveProv(prov),
			telemetry.ObserveMetrics(reg, "ns"))}, 2,
		func(int) int { return 256 }, slowBody)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ step, proc, lo, hi int }
	steals := map[key]telemetry.Event{}
	for _, e := range evs.Records() {
		if e.Kind == telemetry.KindSteal {
			steals[key{e.Step, e.Proc, e.Lo, e.Hi}] = e
		}
	}
	stolen := 0
	for _, p := range prov.Records() {
		if !p.Stolen {
			continue
		}
		stolen++
		if p.Owner == p.Proc || p.Owner < 0 || p.QueueWait < 0 || p.Start-p.QueueWait < 0 {
			t.Errorf("stolen Prov %+v: not a steal from another queue within the submission", p)
		}
		e, ok := steals[key{p.Step, p.Proc, p.Lo, p.Hi}]
		if want, _ := p.DispatchEvent("ns"); !ok || e != want {
			t.Errorf("stolen Prov %+v: steal event %+v (present %v), want %+v", p, e, ok, want)
		}
	}
	if stolen == 0 {
		t.Fatal("no chunk was stolen")
	}
	series := reg.Series()
	last := series[len(series)-1].Values
	if int64(stolen) != st.Steals || int64(len(steals)) != st.Steals || int64(last["steal_latency_ns_count"]) != st.Steals {
		t.Errorf("%d stolen Prov records, %d steal events, steal_latency_ns_count %v; Stats.Steals %d",
			stolen, len(steals), last["steal_latency_ns_count"], st.Steals)
	}
}

// TestProvenanceConcurrentSink exercises the sync stream under real
// contention (belt-and-braces for the race detector).
func TestProvenanceConcurrentSink(t *testing.T) {
	spec, _ := sched.ByName("afs")
	prov := telemetry.NewLog[telemetry.Prov]()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Run(Config{Procs: 2, Spec: spec, Observer: telemetry.ObserveProv(prov)}, 2,
				func(int) int { return 32 }, slowBody)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if prov.Len() == 0 {
		t.Fatal("no provenance records")
	}
}
