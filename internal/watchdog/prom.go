package watchdog

import (
	"io"

	"repro/internal/promtext"
)

// WriteProm renders the detector status in the Prometheus text
// exposition format (version 0.0.4), for appending to the combined
// /metrics.prom scrape: tick/trigger totals, per-rule firing counts,
// and the live value/baseline pairs an operator graphs next to the
// plane's own series when a trigger page arrives.
func WriteProm(w io.Writer, st Status) error {
	pw := promtext.NewWriter(w)
	pw.Counter("loopsched_watchdog_ticks_total", "Detector ticks since start.", st.Ticks)
	pw.Counter("loopsched_watchdog_triggers_total", "Triggers fired since start (all rules and synthetic sources).", st.Triggers)

	pw.Family("loopsched_watchdog_rule_firings_total", "counter", "Firings per detection rule.")
	for _, r := range st.Rules {
		pw.Int("loopsched_watchdog_rule_firings_total", r.Firings, "rule", r.Name)
	}
	pw.Family("loopsched_watchdog_rule_value", "gauge", "Most recent observation of the rule's signal.")
	for _, r := range st.Rules {
		if r.Observed {
			pw.Float("loopsched_watchdog_rule_value", r.Value, "rule", r.Name)
		}
	}
	pw.Family("loopsched_watchdog_rule_baseline", "gauge", "Rolling-window median the rule judges against.")
	for _, r := range st.Rules {
		if r.Warm {
			pw.Float("loopsched_watchdog_rule_baseline", r.Baseline, "rule", r.Name)
		}
	}
	pw.Family("loopsched_watchdog_rule_armed", "gauge", "1 when the rule is warm and out of post-firing cooldown.")
	for _, r := range st.Rules {
		var armed int64
		if r.Warm && r.CooldownLeft == 0 {
			armed = 1
		}
		pw.Int("loopsched_watchdog_rule_armed", armed, "rule", r.Name)
	}
	return pw.Err()
}
