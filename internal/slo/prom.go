package slo

import (
	"io"
	"strconv"

	"repro/internal/promtext"
)

// WriteProm renders a report in the Prometheus text exposition format
// (version 0.0.4), for appending to the plane's /metrics.prom scrape:
// per-(objective, window) burn rates and bad fractions, the last
// observed value per objective, and 0/1 breach flags ready for
// alerting rules.
func WriteProm(w io.Writer, rep Report) error {
	pw := promtext.NewWriter(w)
	pw.Counter("loopsched_slo_evaluations_total", "SLO engine ticks since start.", rep.Ticks)

	pw.Family("loopsched_slo_value", "gauge", "Last observed value of the objective's metric.")
	for _, o := range rep.Objectives {
		if o.Observed {
			pw.Float("loopsched_slo_value", o.Value, "objective", o.Name)
		}
	}
	pw.Family("loopsched_slo_breaching", "gauge", "1 when every window of the objective is burning.")
	for _, o := range rep.Objectives {
		var breaching int64
		if o.Breaching {
			breaching = 1
		}
		pw.Int("loopsched_slo_breaching", breaching, "objective", o.Name)
	}
	pw.Family("loopsched_slo_burn_rate", "gauge", "Window bad fraction over the error budget.")
	for _, o := range rep.Objectives {
		for _, ws := range o.Windows {
			pw.Float("loopsched_slo_burn_rate", ws.BurnRate, "objective", o.Name, "window", windowLabel(ws))
		}
	}
	pw.Family("loopsched_slo_bad_fraction", "gauge", "Bad observations over all observations in the window.")
	for _, o := range rep.Objectives {
		for _, ws := range o.Windows {
			pw.Float("loopsched_slo_bad_fraction", ws.BadFraction, "objective", o.Name, "window", windowLabel(ws))
		}
	}
	return pw.Err()
}

// windowLabel names a window by its length: "60s", "0.5s".
func windowLabel(ws WindowStatus) string {
	return strconv.FormatFloat(ws.DurationSecs, 'g', -1, 64) + "s"
}
