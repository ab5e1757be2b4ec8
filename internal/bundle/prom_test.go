package bundle

import (
	"strings"
	"testing"

	"repro/internal/livemetrics"
	"repro/internal/promtext"
	"repro/internal/runtimeobs"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// TestCombinedPromValid is the regression test for the combined
// /metrics.prom surface: all four writers concatenated must form one
// valid exposition (promtext rejects duplicate # HELP/# TYPE
// declarations and duplicate sample identities).
func TestCombinedPromValid(t *testing.T) {
	plane := livemetrics.New(livemetrics.Options{})
	sloEng, err := slo.New(plane.Snapshot, slo.DefaultObjectives(), slo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := watchdog.New(plane.Snapshot, watchdog.DefaultRules(), watchdog.Options{SLO: sloEng})
	if err != nil {
		t.Fatal(err)
	}
	sampler := runtimeobs.NewSampler()
	sampler.Sample()
	sampler.Sample()
	sloEng.Tick()
	wd.Tick()

	var b strings.Builder
	if err := WriteCombinedProm(&b, plane, sloEng, wd, sampler); err != nil {
		t.Fatalf("WriteCombinedProm: %v", err)
	}
	exp, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("combined scrape is not a valid exposition: %v\n%s", err, b.String())
	}
	// One series from each contributing writer.
	for _, name := range []string{
		"loopsched_submissions_total",     // plane
		"loopsched_slo_evaluations_total", // slo
		"loopsched_watchdog_ticks_total",  // watchdog
		"loopsched_runtime_goroutines",    // runtimeobs
	} {
		if _, err := exp.Value(name); err != nil {
			t.Errorf("combined scrape missing %s: %v", name, err)
		}
	}
}
