package watchdog

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/livemetrics"
	"repro/internal/promtext"
	"repro/internal/slo"
)

// synthSource builds a deterministic snapshot stream for the detector:
// a seeded PRNG jitters the affinity-hit ratio, steal share, and p99
// around fixed healthy levels, and the test can inject a collapse at a
// chosen tick. Counters are cumulative (the watchdog differentiates
// them), mirroring how the real plane accumulates.
type synthSource struct {
	rng       uint64
	tick      int
	chunks    int64
	steals    int64
	hits      int64
	collapsed bool
}

// next is splitmix64, the same seeded generator idiom as
// internal/stats: deterministic across runs and platforms.
func (s *synthSource) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a deterministic float in [0, 1).
func (s *synthSource) unit() float64 { return float64(s.next()%1_000_000) / 1_000_000 }

func (s *synthSource) snapshot() livemetrics.Snapshot {
	s.tick++
	// Healthy interval: 1000 chunks, ~90% affinity hits, ~2% steals,
	// p99 around 10ms — each jittered a few percent.
	chunks := int64(950 + s.next()%100)
	hitRatio := 0.88 + 0.04*s.unit()
	stealShare := 0.01 + 0.02*s.unit()
	p99 := 9.5e6 + 1e6*s.unit()
	if s.collapsed {
		// The injected regression: affinity collapses, steals storm,
		// the tail blows out.
		hitRatio = 0.15 + 0.05*s.unit()
		stealShare = 0.55 + 0.05*s.unit()
		p99 = 45e6 + 5e6*s.unit()
	}
	s.chunks += chunks
	s.hits += int64(hitRatio * float64(chunks))
	s.steals += int64(stealShare * float64(chunks))

	var snap livemetrics.Snapshot
	snap.Counters.Chunks = s.chunks
	snap.Counters.Steals = s.steals
	snap.Submission = livemetrics.Quantiles{Count: 100, P99: p99}
	snap.Workers = []livemetrics.WorkerSnapshot{{Worker: 0, Chunks: s.chunks, AffinityHits: s.hits}}
	return snap
}

func newTestWatchdog(t *testing.T, src *synthSource, opts Options) *Watchdog {
	t.Helper()
	if opts.Now == nil {
		base := time.Unix(1700000000, 0)
		n := 0
		opts.Now = func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) }
	}
	w, err := New(src.snapshot, DefaultRules(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return w
}

// TestStationaryWorkloadNeverFires pins the false-positive budget the
// auto-triage docs promise: a stationary seeded workload — healthy
// levels with multi-percent jitter — produces zero firings across
// 1000 ticks under the default rules.
func TestStationaryWorkloadNeverFires(t *testing.T) {
	src := &synthSource{rng: 1}
	w := newTestWatchdog(t, src, Options{})
	var fired []Trigger
	w.OnTrigger(func(tr Trigger) { fired = append(fired, tr) })
	for i := 0; i < 1000; i++ {
		w.Tick()
	}
	if len(fired) != 0 {
		t.Fatalf("stationary workload fired %d trigger(s), first: %+v", len(fired), fired[0])
	}
	st := w.Status()
	if st.Ticks != 1000 || st.Triggers != 0 {
		t.Fatalf("status = %d ticks / %d triggers, want 1000 / 0", st.Ticks, st.Triggers)
	}
	for _, r := range st.Rules {
		if !r.Observed || !r.Warm {
			t.Errorf("rule %s never warmed (observed=%v warm=%v)", r.Name, r.Observed, r.Warm)
		}
	}
}

// TestCollapseFiresWithinBudget pins the detection-latency budget: an
// injected affinity collapse must fire within Consecutive + 1 ticks of
// the collapse (the shifted signal needs Consecutive anomalous ticks
// to arm, and ratio signals observe the interval, so the first
// post-collapse tick may still blend pre-collapse chunks). Each rule
// fires exactly once — the cooldown forbids flapping.
func TestCollapseFiresWithinBudget(t *testing.T) {
	src := &synthSource{rng: 2}
	w := newTestWatchdog(t, src, Options{})
	var fired []Trigger
	w.OnTrigger(func(tr Trigger) { fired = append(fired, tr) })

	const warm = 200
	for i := 0; i < warm; i++ {
		w.Tick()
	}
	if len(fired) != 0 {
		t.Fatalf("fired during warm stationary phase: %+v", fired)
	}
	src.collapsed = true
	const budget = 4 // Consecutive (3) + 1 blended tick
	for i := 0; i < 100; i++ {
		w.Tick()
	}
	want := map[string]bool{"affinity-collapse": true, "steal-storm": true, "latency-spike": true}
	got := map[string]int{}
	for _, tr := range fired {
		got[tr.Rule]++
		if !want[tr.Rule] {
			t.Errorf("unexpected rule fired: %+v", tr)
			continue
		}
		if lag := tr.Tick - warm; lag < 1 || lag > budget {
			t.Errorf("rule %s fired at tick %d, %d ticks after the collapse (budget %d)", tr.Rule, tr.Tick, lag, budget)
		}
		if tr.Deviation <= 6 {
			t.Errorf("rule %s fired at only %.1f sigma", tr.Rule, tr.Deviation)
		}
	}
	for name := range want {
		if got[name] != 1 {
			t.Errorf("rule %s fired %d time(s) in 100 post-collapse ticks, want exactly 1 (cooldown must prevent flapping)", name, got[name])
		}
	}
}

// TestDeterministicFiringSequence pins the deterministic-under-
// deterministic-source property: two watchdogs over identical seeded
// sources produce identical trigger sequences, tick for tick.
func TestDeterministicFiringSequence(t *testing.T) {
	run := func() []Trigger {
		src := &synthSource{rng: 7}
		w := newTestWatchdog(t, src, Options{})
		var fired []Trigger
		w.OnTrigger(func(tr Trigger) { fired = append(fired, tr) })
		for i := 0; i < 150; i++ {
			if i == 100 {
				src.collapsed = true
			}
			w.Tick()
		}
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d triggers", len(a), len(b))
	}
	for i := range a {
		if a[i].Rule != b[i].Rule || a[i].Tick != b[i].Tick || a[i].Value != b[i].Value {
			t.Errorf("trigger %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSLOBreachEdgeTrigger wires a real slo.Engine with impossible
// objectives over the synthetic source and verifies the breach fires
// once on the transition, not once per tick.
func TestSLOBreachEdgeTrigger(t *testing.T) {
	src := &synthSource{rng: 3}
	base := time.Unix(1700000000, 0)
	n := 0
	now := func() time.Time { n++; return base.Add(time.Duration(n) * 10 * time.Second) }
	// An unsatisfiable objective: p99 must be under 1ns.
	eng, err := slo.New(src.snapshot, []slo.Objective{{
		Name: "impossible-p99", Metric: slo.MetricP99SubmissionNS,
		Threshold: 1, Budget: 0.01,
		Windows: []slo.Window{{Duration: time.Minute, MaxBurn: 1}},
	}}, slo.Options{Now: now})
	if err != nil {
		t.Fatalf("slo.New: %v", err)
	}
	w := newTestWatchdog(t, src, Options{SLO: eng, Now: now})
	var fired []Trigger
	w.OnTrigger(func(tr Trigger) { fired = append(fired, tr) })
	for i := 0; i < 50; i++ {
		eng.Tick()
		w.Tick()
	}
	breaches := 0
	for _, tr := range fired {
		if tr.Rule == "slo:impossible-p99" {
			breaches++
			if !strings.Contains(tr.Reason, "impossible-p99") {
				t.Errorf("breach reason %q does not name the objective", tr.Reason)
			}
		} else {
			t.Errorf("unexpected trigger %+v", tr)
		}
	}
	if breaches != 1 {
		t.Fatalf("SLO breach fired %d time(s), want exactly 1 (edge-triggered)", breaches)
	}
}

// TestFlightFreezeTrigger drives the anomaly-seq source and verifies
// each increment fires exactly once.
func TestFlightFreezeTrigger(t *testing.T) {
	src := &synthSource{rng: 4}
	var seq int64
	w := newTestWatchdog(t, src, Options{AnomalySeq: func() int64 { return seq }})
	var fired []Trigger
	w.OnTrigger(func(tr Trigger) { fired = append(fired, tr) })
	for i := 0; i < 10; i++ {
		w.Tick()
	}
	if len(fired) != 0 {
		t.Fatalf("fired before any anomaly: %+v", fired)
	}
	seq = 2
	for i := 0; i < 10; i++ {
		w.Tick()
	}
	if len(fired) != 1 || fired[0].Rule != "flight-freeze" || fired[0].Value != 2 {
		t.Fatalf("flight-freeze firing = %+v, want one trigger covering 2 dumps", fired)
	}
}

// TestWatchdogPromValid locks the exposition down with the promtext
// parser, matching the livemetrics and slo prom tests.
func TestWatchdogPromValid(t *testing.T) {
	src := &synthSource{rng: 5}
	w := newTestWatchdog(t, src, Options{})
	for i := 0; i < 100; i++ {
		if i == 90 {
			src.collapsed = true
		}
		w.Tick()
	}
	var b strings.Builder
	if err := WriteProm(&b, w.Status()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	exp, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	trig, err := exp.Value("loopsched_watchdog_triggers_total")
	if err != nil {
		t.Fatalf("missing triggers total: %v", err)
	}
	if trig < 1 {
		t.Fatalf("triggers total %g, want >= 1 after collapse", trig)
	}
	if _, err := exp.Value("loopsched_watchdog_rule_value", "rule", "affinity-collapse"); err != nil {
		t.Fatalf("missing per-rule value: %v", err)
	}
}

// TestRuleValidation pins the constructor's error surface.
func TestRuleValidation(t *testing.T) {
	src := &synthSource{rng: 6}
	cases := []struct {
		name  string
		rules []Rule
	}{
		{"no rules", nil},
		{"empty name", []Rule{{Signal: slo.MetricStealShare}}},
		{"bad signal", []Rule{{Name: "x", Signal: "nope"}}},
		{"dup name", []Rule{{Name: "x", Signal: slo.MetricStealShare}, {Name: "x", Signal: slo.MetricP99SubmissionNS}}},
		{"negative mindev", []Rule{{Name: "x", Signal: slo.MetricStealShare, MinDev: -1}}},
	}
	for _, c := range cases {
		if _, err := New(src.snapshot, c.rules, Options{}); err == nil {
			t.Errorf("%s: New accepted invalid rules", c.name)
		}
	}
	if _, err := New(nil, DefaultRules(), Options{}); err == nil {
		t.Error("New accepted a nil source")
	}
}

// TestServingRulesFireOnShedSurge pins the serving-layer detectors:
// over a stationary serving workload (~2% shed, ~1ms admission p99,
// jittered) the ServingRules stay silent, and an injected queue
// collapse (majority shed, 30ms waits) fires shed-surge and
// admission-stall exactly once each within the detection budget.
func TestServingRulesFireOnShedSurge(t *testing.T) {
	src := &synthSource{rng: 3}
	var admitted, shed int64
	surge := false
	snapshot := func() livemetrics.Snapshot {
		snap := src.snapshot()
		n := int64(95 + src.next()%10)
		shedFrac := 0.01 + 0.02*src.unit()
		wait := 0.9e6 + 0.2e6*src.unit()
		if surge {
			shedFrac = 0.6 + 0.1*src.unit()
			wait = 30e6 + 5e6*src.unit()
		}
		s := int64(shedFrac * float64(n))
		admitted += n - s
		shed += s
		snap.Admission = &livemetrics.AdmissionSnapshot{
			Admitted: admitted, Shed: shed,
			Wait: livemetrics.Quantiles{Count: 100, P99: wait},
		}
		return snap
	}
	base := time.Unix(1700000000, 0)
	ticks := 0
	w, err := New(snapshot, append(DefaultRules(), ServingRules()...), Options{
		Now: func() time.Time { ticks++; return base.Add(time.Duration(ticks) * time.Second) },
	})
	if err != nil {
		t.Fatalf("New with serving rules: %v", err)
	}
	var fired []Trigger
	w.OnTrigger(func(tr Trigger) { fired = append(fired, tr) })

	const warm = 200
	for i := 0; i < warm; i++ {
		w.Tick()
	}
	if len(fired) != 0 {
		t.Fatalf("fired during stationary serving phase: %+v", fired)
	}
	surge = true
	for i := 0; i < 100; i++ {
		w.Tick()
	}
	const budget = 4
	got := map[string]int{}
	for _, tr := range fired {
		got[tr.Rule]++
		if tr.Rule != "shed-surge" && tr.Rule != "admission-stall" {
			t.Errorf("non-serving rule fired on a serving collapse: %+v", tr)
			continue
		}
		if lag := tr.Tick - warm; lag < 1 || lag > budget {
			t.Errorf("rule %s fired %d ticks after the surge (budget %d)", tr.Rule, lag, budget)
		}
	}
	for _, name := range []string{"shed-surge", "admission-stall"} {
		if got[name] != 1 {
			t.Errorf("rule %s fired %d time(s), want exactly 1", name, got[name])
		}
	}
}

// TestSLOAndWatchdogReadIdenticalValues feeds one scripted snapshot
// sequence to an SLO engine and a watchdog that cover all five
// signals, and checks at every tick that both observe the same
// signals with the same values: nothing ratio-based on the priming
// tick, nothing ratio-based over an idle interval, no p99 over an
// empty window, and no admission signal while Snapshot.Admission is
// nil.
func TestSLOAndWatchdogReadIdenticalValues(t *testing.T) {
	metrics := []slo.Metric{slo.MetricP99SubmissionNS, slo.MetricAffinityHitRatio,
		slo.MetricStealShare, slo.MetricAdmissionP99NS, slo.MetricShedRate}
	snap := func(p99 float64, subs, hits, chunks, steals int64, adm *livemetrics.AdmissionSnapshot) livemetrics.Snapshot {
		return livemetrics.Snapshot{
			Submission: livemetrics.Quantiles{Count: subs, P99: p99},
			Workers:    []livemetrics.WorkerSnapshot{{AffinityHits: hits, Chunks: chunks}},
			Counters:   livemetrics.Counters{Steals: steals},
			Admission:  adm,
		}
	}
	admission := func(admitted, shed int64, waits int64, p99 float64) *livemetrics.AdmissionSnapshot {
		return &livemetrics.AdmissionSnapshot{Admitted: admitted, Shed: shed,
			Wait: livemetrics.Quantiles{Count: waits, P99: p99}}
	}
	type want map[slo.Metric]float64 // the signals observed this tick
	script := []struct {
		name string
		snap livemetrics.Snapshot
		want want
	}{
		{"priming tick, no serving frontend", snap(1e6, 10, 80, 100, 10, nil),
			want{slo.MetricP99SubmissionNS: 1e6}},
		{"first interval", snap(2e6, 10, 90, 120, 20, admission(9, 1, 9, 5e5)),
			want{slo.MetricP99SubmissionNS: 2e6, slo.MetricAffinityHitRatio: 0.5,
				slo.MetricStealShare: 0.5, slo.MetricAdmissionP99NS: 5e5, slo.MetricShedRate: 0.1}},
		{"idle interval, empty submission window", snap(0, 0, 90, 120, 20, admission(9, 1, 9, 5e5)),
			want{slo.MetricAdmissionP99NS: 5e5}},
		{"frontend gone", snap(3e6, 4, 120, 160, 22, nil),
			want{slo.MetricP99SubmissionNS: 3e6, slo.MetricAffinityHitRatio: 0.75, slo.MetricStealShare: 0.05}},
		{"frontend back", snap(3e6, 4, 121, 164, 23, admission(12, 4, 0, 0)),
			want{slo.MetricP99SubmissionNS: 3e6, slo.MetricAffinityHitRatio: 0.25,
				slo.MetricStealShare: 0.25, slo.MetricShedRate: 0.25}},
	}

	var cur livemetrics.Snapshot
	source := func() livemetrics.Snapshot { return cur }
	var objectives []slo.Objective
	var rules []Rule
	for _, m := range metrics {
		objectives = append(objectives, slo.Objective{Name: string(m), Metric: m, Threshold: 1, Budget: 1,
			Windows: []slo.Window{{Duration: time.Hour, MaxBurn: 1}}})
		rules = append(rules, Rule{Name: string(m), Signal: m})
	}
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { return clock }
	eng, err := slo.New(source, objectives, slo.Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(source, rules, Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}

	for _, step := range script {
		cur = step.snap
		sloBefore, wdBefore := eng.Report(), make([]int, len(w.rules))
		for i, rs := range w.rules {
			wdBefore[i] = rs.next // the baseline's fill counts observations
		}
		eng.Tick()
		w.Tick()
		clock = clock.Add(time.Second)
		rep := eng.Report()
		for i, m := range metrics {
			sloObserved := rep.Objectives[i].Windows[0].Samples > sloBefore.Objectives[i].Windows[0].Samples
			wdObserved := w.rules[i].next > wdBefore[i]
			v, ok := step.want[m]
			if sloObserved != ok || wdObserved != ok {
				t.Errorf("%s: %s observed by SLO %v, by watchdog %v; want %v", step.name, m, sloObserved, wdObserved, ok)
				continue
			}
			if !ok {
				continue
			}
			sloVal, wdVal := rep.Objectives[i].Value, w.rules[i].value
			if sloVal != wdVal || math.Abs(sloVal-v) > 1e-12 {
				t.Errorf("%s: %s = %v (SLO) and %v (watchdog), want %v from both", step.name, m, sloVal, wdVal, v)
			}
		}
	}
}
