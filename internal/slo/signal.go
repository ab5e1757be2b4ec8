package slo

import "repro/internal/livemetrics"

// Metric identifies one snapshot-derived signal. The SLO engine scores
// objectives on these signals and the watchdog's rules watch them
// (watchdog.Rule.Signal); both read them through a Reader, so a signal
// means the same thing wherever it is read.
type Metric string

const (
	// MetricP99SubmissionNS is the plane's rolling p99 submission
	// latency in nanoseconds.
	MetricP99SubmissionNS Metric = "p99_submission_latency_ns"
	// MetricAffinityHitRatio is the fraction of chunks executed on
	// their static ⌈N/P⌉ owner without having been stolen.
	MetricAffinityHitRatio Metric = "affinity_hit_ratio"
	// MetricStealShare is steals per executed chunk.
	MetricStealShare Metric = "steal_share"
	// MetricAdmissionP99NS is the serving layer's rolling p99 admission
	// queue wait in nanoseconds (admitted jobs only).
	MetricAdmissionP99NS Metric = "admission_p99_wait_ns"
	// MetricShedRate is the fraction of admission decisions that shed
	// the job (429).
	MetricShedRate Metric = "shed_rate"
)

// counts are the cumulative snapshot counters the ratio signals
// difference between reads.
type counts struct{ chunks, steals, hits, admitted, shed int64 }

func cumulative(snap livemetrics.Snapshot) counts {
	c := counts{steals: snap.Counters.Steals}
	for _, w := range snap.Workers {
		c.hits += w.AffinityHits
		c.chunks += w.Chunks
	}
	if snap.Admission != nil {
		c.admitted, c.shed = snap.Admission.Admitted, snap.Admission.Shed
	}
	return c
}

// signal is one row of the signal table. A window signal is a rolling
// p99 read straight from the snapshot; it has no value while its
// window is empty (a plane without a serving frontend has no admission
// window at all). A ratio signal divides inter-read counter deltas, so
// it measures the interval rather than all history; it has no value on
// the priming read or over an interval whose denominator did not move.
type signal struct {
	metric Metric
	// floor marks a signal that is bad when it falls; the others are
	// bad when they rise (ceilings).
	floor  bool
	window func(livemetrics.Snapshot) livemetrics.Quantiles
	ratio  func(d counts) (num, den int64)
}

// signals is the one declaration of every signal.
var signals = [...]signal{
	{metric: MetricP99SubmissionNS,
		window: func(s livemetrics.Snapshot) livemetrics.Quantiles { return s.Submission }},
	{metric: MetricAffinityHitRatio, floor: true,
		ratio: func(d counts) (int64, int64) { return d.hits, d.chunks }},
	{metric: MetricStealShare,
		ratio: func(d counts) (int64, int64) { return d.steals, d.chunks }},
	{metric: MetricAdmissionP99NS,
		window: func(s livemetrics.Snapshot) livemetrics.Quantiles {
			if s.Admission == nil {
				return livemetrics.Quantiles{}
			}
			return s.Admission.Wait
		}},
	{metric: MetricShedRate,
		ratio: func(d counts) (int64, int64) { return d.shed, d.admitted + d.shed }},
}

func (m Metric) index() int {
	for i, s := range signals {
		if s.metric == m {
			return i
		}
	}
	return -1
}

// Valid reports whether m names a declared signal.
func (m Metric) Valid() bool { return m.index() >= 0 }

// Floor reports whether m is bad when it falls (a floor) rather than
// when it rises (a ceiling).
func (m Metric) Floor() bool {
	i := m.index()
	return i >= 0 && signals[i].floor
}

// Reading is every signal's value over one interval.
type Reading struct {
	value [len(signals)]float64
	ok    [len(signals)]bool
}

// Value returns m's value; ok is false when m's skip rule applied.
func (r Reading) Value(m Metric) (v float64, ok bool) {
	i := m.index()
	if i < 0 {
		return 0, false
	}
	return r.value[i], r.ok[i]
}

// Reader turns successive snapshots into interval readings, keeping
// the previous read's cumulative counters. The zero value is ready;
// its first Read primes the counters. Not safe for concurrent use.
type Reader struct {
	prev   counts
	primed bool
}

// Read reads every signal from snap over the interval since the
// previous Read.
func (r *Reader) Read(snap livemetrics.Snapshot) Reading {
	cur := cumulative(snap)
	d := counts{
		chunks:   cur.chunks - r.prev.chunks,
		steals:   cur.steals - r.prev.steals,
		hits:     cur.hits - r.prev.hits,
		admitted: cur.admitted - r.prev.admitted,
		shed:     cur.shed - r.prev.shed,
	}
	primed := r.primed
	r.prev, r.primed = cur, true

	var out Reading
	for i, s := range signals {
		if s.window != nil {
			if q := s.window(snap); q.Count > 0 {
				out.value[i], out.ok[i] = q.P99, true
			}
		} else if num, den := s.ratio(d); primed && den > 0 {
			out.value[i], out.ok[i] = float64(num)/float64(den), true
		}
	}
	return out
}
