package forensics

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Summary is the compact attribution digest embedded in perflab
// results and the dashboard: the makespan, the average per-processor
// bucket decomposition (which sums to the makespan), and the migration
// totals.
type Summary struct {
	Makespan float64 `json:"makespan"`
	Unit     string  `json:"unit"`
	// Buckets is the average per-processor decomposition; values sum
	// to Makespan.
	Buckets       map[string]float64 `json:"buckets"`
	Steals        int                `json:"steals"`
	MigratedIters int                `json:"migrated_iters"`
	// TopOverhead names the largest non-compute bucket.
	TopOverhead string `json:"top_overhead"`
}

// Summarize condenses an analysis into a Summary.
func (a *Analysis) Summarize() Summary {
	top, _ := a.TopOverhead()
	return Summary{
		Makespan:      a.Span,
		Unit:          a.Meta.Unit(),
		Buckets:       a.AvgBuckets.Map(),
		Steals:        a.StealCount,
		MigratedIters: a.MigratedIters,
		TopOverhead:   string(top),
	}
}

// BucketDelta is one bucket's contribution to a makespan difference.
// A and B are average per-processor values; Delta = B − A. Because
// each run's average buckets sum to its makespan, the Deltas sum
// exactly to the makespan difference.
type BucketDelta struct {
	Bucket BucketKind `json:"bucket"`
	A      float64    `json:"a"`
	B      float64    `json:"b"`
	Delta  float64    `json:"delta"`
	// Share is Delta as a fraction of the total makespan difference
	// (only meaningful when the difference is non-negligible).
	Share float64 `json:"share"`
}

// DiffReport explains the performance difference between two runs.
type DiffReport struct {
	A, B telemetry.TraceMeta `json:"-"`
	// NameA / NameB are the run labels used in the verdict.
	NameA string  `json:"name_a"`
	NameB string  `json:"name_b"`
	SpanA float64 `json:"span_a"`
	SpanB float64 `json:"span_b"`
	// Delta = SpanB − SpanA (< 0 means B is faster).
	Delta float64 `json:"delta"`
	Unit  string  `json:"unit"`
	// Deltas decomposes Delta exactly, sorted by |Delta| descending.
	Deltas []BucketDelta `json:"deltas"`
	// Dominant is the bucket contributing most to the gap in the
	// winner's favour (empty for a statistical tie).
	Dominant  BucketKind `json:"dominant,omitempty"`
	Faster    string     `json:"faster,omitempty"`
	StealsA   int        `json:"steals_a"`
	StealsB   int        `json:"steals_b"`
	MigratedA int        `json:"migrated_a"`
	MigratedB int        `json:"migrated_b"`
	// Verdict is the one-paragraph human-readable attribution.
	Verdict string `json:"verdict"`
}

// tieFraction: gaps below 1% of the slower makespan get no verdict
// winner.
const tieFraction = 0.01

// Diff decomposes the makespan difference between two analyses into
// per-bucket contributions and generates an attribution verdict.
func Diff(a, b *Analysis) *DiffReport {
	nameA, nameB := a.Meta.Name(), b.Meta.Name()
	if nameA == nameB {
		nameA, nameB = nameA+" (A)", nameB+" (B)"
	}
	d := &DiffReport{
		A: a.Meta, B: b.Meta,
		NameA: nameA, NameB: nameB,
		SpanA: a.Span, SpanB: b.Span,
		Delta:   b.Span - a.Span,
		Unit:    a.Meta.Unit(),
		StealsA: a.StealCount, StealsB: b.StealCount,
		MigratedA: a.MigratedIters, MigratedB: b.MigratedIters,
	}
	for _, k := range BucketOrder {
		bd := BucketDelta{
			Bucket: k,
			A:      a.AvgBuckets.Get(k),
			B:      b.AvgBuckets.Get(k),
		}
		bd.Delta = bd.B - bd.A
		if d.Delta != 0 {
			bd.Share = bd.Delta / d.Delta
		}
		d.Deltas = append(d.Deltas, bd)
	}
	sort.SliceStable(d.Deltas, func(i, j int) bool {
		return abs(d.Deltas[i].Delta) > abs(d.Deltas[j].Delta)
	})

	slower := d.SpanA
	if d.SpanB > slower {
		slower = d.SpanB
	}
	if slower <= 0 || abs(d.Delta) < tieFraction*slower {
		d.Verdict = fmt.Sprintf(
			"%s and %s are within %.1f%% of each other (%s vs %s %s) — no attribution.",
			nameA, nameB, 100*tieFraction, fmtT(d.SpanA), fmtT(d.SpanB), d.Unit)
		return d
	}

	winner, loser := nameB, nameA
	winSpan, loseSpan := d.SpanB, d.SpanA
	winMig, loseMig := d.MigratedB, d.MigratedA
	if d.Delta > 0 { // B slower → A wins
		winner, loser = nameA, nameB
		winSpan, loseSpan = d.SpanA, d.SpanB
		winMig, loseMig = d.MigratedA, d.MigratedB
	}
	// Dominant bucket: largest contribution with the gap's sign.
	for _, bd := range d.Deltas {
		if bd.Delta*d.Delta > 0 {
			d.Dominant = bd.Bucket
			break
		}
	}
	d.Faster = winner

	gain := 100 * (loseSpan - winSpan) / loseSpan
	verdict := fmt.Sprintf("%s beats %s by %.1f%% (makespan %s vs %s %s).",
		winner, loser, gain, fmtT(winSpan), fmtT(loseSpan), d.Unit)
	if d.Dominant != "" {
		var dom BucketDelta
		for _, bd := range d.Deltas {
			if bd.Bucket == d.Dominant {
				dom = bd
				break
			}
		}
		verdict += fmt.Sprintf(
			" %.0f%% of the gap is %s: %s pays %s more %s %s per processor%s.",
			100*abs(dom.Delta/d.Delta), d.Dominant, loser,
			fmtT(abs(dom.Delta)), d.Dominant, d.Unit, bucketCause(d.Dominant))
		if d.Dominant == BucketCacheReload && loseMig+winMig > 0 {
			verdict += fmt.Sprintf(" Migrated iterations: %d (%s) vs %d (%s).",
				loseMig, loser, winMig, winner)
		}
	}
	d.Verdict = verdict
	return d
}

// bucketCause explains the mechanism behind each overhead bucket in
// the paper's terms.
func bucketCause(k BucketKind) string {
	switch k {
	case BucketCacheReload:
		return ", the reload cost of cross-processor iteration migration"
	case BucketInterconnect:
		return " queueing for the shared interconnect"
	case BucketQueueWait:
		return " waiting on contended work queues"
	case BucketIdle:
		return " idle at barriers from load imbalance"
	case BucketCompute:
		return " of loop-body execution"
	}
	return ""
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// fmtT formats a time value compactly regardless of magnitude.
func fmtT(v float64) string {
	av := abs(v)
	switch {
	case av >= 1e7:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
