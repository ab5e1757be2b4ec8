package perflab

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/forensics"
	"repro/internal/stats"
)

// WriteReport renders a comparison as a markdown document: a verdict
// summary, the per-case table, and the counter movements behind any
// significant case (steals, queue waits, cache misses — the telemetry
// that explains *why* a case moved).
func WriteReport(w io.Writer, cmp *Comparison, old, new_ *Baseline) {
	fmt.Fprintf(w, "# Performance report: baseline %d → %d\n\n", cmp.OldSeq, cmp.NewSeq)
	fmt.Fprintf(w, "- old: `%s` (%s)\n", short(cmp.OldSHA), old.Timestamp.Format("2006-01-02 15:04"))
	fmt.Fprintf(w, "- new: `%s` (%s)\n", short(cmp.NewSHA), new_.Timestamp.Format("2006-01-02 15:04"))
	fmt.Fprintf(w, "- significance: median moved >%.0f%% with disjoint bootstrap 95%% CIs\n\n",
		cmp.Threshold*100)
	writeOversubscribed(w, cmp, old, new_)

	regs, imps := cmp.Regressions(), cmp.Improvements()
	switch {
	case len(regs) > 0:
		fmt.Fprintf(w, "**GATE: FAIL — %d regression(s).**\n\n", len(regs))
	case len(imps) > 0:
		fmt.Fprintf(w, "**GATE: PASS — no regressions, %d improvement(s).**\n\n", len(imps))
	default:
		fmt.Fprintf(w, "**GATE: PASS — no significant movement.**\n\n")
	}

	fmt.Fprintln(w, "| case | gate | old median | new median | Δ | old CI95 | new CI95 | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, d := range cmp.Deltas {
		gate := ""
		if d.Gate {
			gate = "✓"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			d.ID, gate, medianCell(d.Old), medianCell(d.New), deltaCell(d),
			ciCell(d.Old), ciCell(d.New), verdictCell(d.Verdict))
	}
	fmt.Fprintln(w)

	for _, d := range cmp.Deltas {
		if d.Verdict != VerdictRegression && d.Verdict != VerdictImprovement {
			continue
		}
		oc, nc := old.Lookup(d.ID), new_.Lookup(d.ID)
		if oc == nil || nc == nil {
			continue
		}
		if len(nc.Counters) > 0 {
			fmt.Fprintf(w, "## Counters: %s (%s)\n\n", d.ID, d.Verdict)
			fmt.Fprintln(w, "| counter | old | new |")
			fmt.Fprintln(w, "|---|---|---|")
			for _, name := range sortedKeys(nc.Counters) {
				fmt.Fprintf(w, "| %s | %s | %s |\n", name,
					stats.FormatCount(oc.Counters[name]), stats.FormatCount(nc.Counters[name]))
			}
			fmt.Fprintln(w)
		}
		WriteForensicsDelta(w, d.ID, oc.Forensics, nc.Forensics)
	}
}

// writeOversubscribed prints one warning line per real case that ran
// more workers than a recording host could run at once: its wall times
// measure time-slicing, not parallel execution.
func writeOversubscribed(w io.Writer, cmp *Comparison, old, new_ *Baseline) {
	warned := false
	for _, d := range cmp.Deltas {
		var hosts []string
		procs := 0
		for _, b := range []*Baseline{old, new_} {
			c := b.Lookup(d.ID)
			if c == nil || c.Substrate != SubstrateReal || b.UsableCPUs() == 0 || c.Procs <= b.UsableCPUs() {
				continue
			}
			procs = c.Procs
			hosts = append(hosts, fmt.Sprintf("baseline %d: %d", b.Seq, b.UsableCPUs()))
		}
		if len(hosts) > 0 {
			fmt.Fprintf(w, "- warning: %s runs %d workers on fewer usable CPUs (%s); its wall times measure oversubscription\n",
				d.ID, procs, strings.Join(hosts, ", "))
			warned = true
		}
	}
	if warned {
		fmt.Fprintln(w)
	}
}

// WriteForensicsDelta renders the attribution movement between two
// stored forensics digests: which cost bucket the makespan change came
// from. No-op when either side predates forensics capture.
func WriteForensicsDelta(w io.Writer, id string, of, nf *forensics.Summary) {
	if of == nil || nf == nil {
		return
	}
	delta := nf.Makespan - of.Makespan
	fmt.Fprintf(w, "## Attribution: %s\n\n", id)
	fmt.Fprintf(w, "Makespan %s → %s %s (%+.1f%%). Average per-processor decomposition:\n\n",
		stats.FormatCount(of.Makespan), stats.FormatCount(nf.Makespan), nf.Unit,
		pctChange(of.Makespan, nf.Makespan))
	fmt.Fprintln(w, "| bucket | old | new | Δ | share of gap |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	var topBucket string
	var topDelta float64
	for _, k := range forensics.BucketOrder {
		ov, nv := of.Buckets[string(k)], nf.Buckets[string(k)]
		bd := nv - ov
		share := "—"
		if delta != 0 {
			share = fmt.Sprintf("%.0f%%", 100*bd/delta)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %+.4g | %s |\n", k,
			stats.FormatCount(ov), stats.FormatCount(nv), bd, share)
		if bd*delta > 0 && abs(bd) > abs(topDelta) {
			topBucket, topDelta = string(k), bd
		}
	}
	fmt.Fprintln(w)
	if topBucket != "" && delta != 0 {
		dir := "slowdown"
		if delta < 0 {
			dir = "speedup"
		}
		fmt.Fprintf(w, "Dominant movement: **%s** explains %.0f%% of the %s. Steals %d → %d, migrated iterations %d → %d.\n\n",
			topBucket, 100*topDelta/delta, dir, of.Steals, nf.Steals,
			of.MigratedIters, nf.MigratedIters)
	}
}

func pctChange(old, new_ float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new_ - old) / old
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func short(sha string) string {
	if len(sha) > 10 {
		return sha[:10]
	}
	return sha
}

func medianCell(s *stats.Summary) string {
	if s == nil {
		return "—"
	}
	return stats.FormatSeconds(s.Median) + "s"
}

func ciCell(s *stats.Summary) string {
	if s == nil {
		return "—"
	}
	return fmt.Sprintf("[%s, %s]", stats.FormatSeconds(s.CILo), stats.FormatSeconds(s.CIHi))
}

func deltaCell(d Delta) string {
	if d.Ratio == 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", (d.Ratio-1)*100)
}

func verdictCell(v Verdict) string {
	switch v {
	case VerdictRegression:
		return "**REGRESSION**"
	case VerdictImprovement:
		return "improvement"
	}
	return string(v)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// TrendFigure plots one case's median (with CI bounds) across the
// baseline sequence — x is the BENCH_<n> number, so gaps in history
// show as gaps in x.
func TrendFigure(id string, baselines []*Baseline) *stats.Figure {
	var x []int
	var med, lo, hi []float64
	for _, b := range baselines {
		c := b.Lookup(id)
		if c == nil {
			continue
		}
		x = append(x, b.Seq)
		med = append(med, c.Summary.Median)
		lo = append(lo, c.Summary.CILo)
		hi = append(hi, c.Summary.CIHi)
	}
	f := stats.NewFigure("trend: "+id, x)
	f.XLabel = "baseline"
	f.YLabel = "time (s)"
	f.Add("median", med)
	f.Add("ci95 lo", lo)
	f.Add("ci95 hi", hi)
	return f
}

// caseIDs returns the union of case IDs across baselines in first-seen
// order.
func caseIDs(baselines []*Baseline) []string {
	var ids []string
	seen := make(map[string]bool)
	for _, b := range baselines {
		for _, c := range b.Cases {
			if !seen[c.ID] {
				seen[c.ID] = true
				ids = append(ids, c.ID)
			}
		}
	}
	return ids
}

// fileSafe flattens a case ID for use in a filename.
func fileSafe(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, id)
}

// WriteTrendSVGs renders one trend chart per case into dir
// (trend-<case>.svg) and returns the written paths.
func WriteTrendSVGs(dir string, baselines []*Baseline) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, id := range caseIDs(baselines) {
		var b strings.Builder
		TrendFigure(id, baselines).SVG(&b)
		path := filepath.Join(dir, "trend-"+fileSafe(id)+".svg")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// SummaryTable renders run results as a stats.Table for terminal
// output.
func SummaryTable(title string, results []CaseResult) *stats.Table {
	t := stats.NewTable(title, "case", "n", "median", "mad", "ci95", "steals", "sync ops", "top overhead")
	for _, r := range results {
		syncOps := r.Counters["central_ops"] + r.Counters["local_ops"] + r.Counters["remote_ops"]
		top := "—"
		if r.Forensics != nil && r.Forensics.Makespan > 0 {
			top = fmt.Sprintf("%s %.1f%%", r.Forensics.TopOverhead,
				100*r.Forensics.Buckets[r.Forensics.TopOverhead]/r.Forensics.Makespan)
		}
		t.AddRow(r.ID,
			fmt.Sprintf("%d", r.Summary.N),
			stats.FormatSeconds(r.Summary.Median)+"s",
			stats.FormatSeconds(r.Summary.MAD),
			fmt.Sprintf("[%s, %s]", stats.FormatSeconds(r.Summary.CILo), stats.FormatSeconds(r.Summary.CIHi)),
			stats.FormatCount(r.Counters["steals"]),
			stats.FormatCount(syncOps),
			top)
	}
	return t
}
