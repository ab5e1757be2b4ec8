// Package forensics is the post-hoc execution analysis engine: it
// consumes a telemetry event stream plus per-chunk provenance records
// (from either execution substrate) and explains *why* an execution
// took as long as it did.
//
// Where internal/telemetry records what happened and internal/perflab
// detects that something got slower, forensics produces the diagnosis
// the paper's argument is built on — a decomposition of loop execution
// into the cost mechanisms of Theorems 3.1–3.3:
//
//   - a steal graph: who stole how much work from whom;
//   - the critical path: the chain of chunks, queue waits and idle
//     gaps on each step's straggling processor that determines the
//     makespan;
//   - an attribution report splitting each processor's span into
//     compute / cache-reload / interconnect / queue-wait / idle
//     buckets that provably sum to the measured span;
//   - for pairs of runs, an exact decomposition of the makespan delta
//     into those buckets with an automated verdict ("AFS beats GSS
//     here because GSS pays N more cache-reload cycles from
//     cross-processor migration").
//
// Consumed by cmd/loopdoctor (analyze / diff) and internal/perflab
// (attribution summaries in reports, the dashboard, and gate
// failures).
package forensics

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// BucketKind names one attribution bucket.
type BucketKind string

// The five attribution buckets, in report order.
const (
	BucketCompute      BucketKind = "compute"
	BucketCacheReload  BucketKind = "cache-reload"
	BucketInterconnect BucketKind = "interconnect"
	BucketQueueWait    BucketKind = "queue-wait"
	BucketIdle         BucketKind = "idle"
)

// BucketOrder is the canonical report ordering.
var BucketOrder = []BucketKind{
	BucketCompute, BucketCacheReload, BucketInterconnect, BucketQueueWait, BucketIdle,
}

// Buckets decomposes a time span into the paper's cost mechanisms.
// All values use the trace's native time unit (simulator cycles or
// real-runtime nanoseconds).
type Buckets struct {
	// Compute is loop-body execution time.
	Compute float64 `json:"compute"`
	// CacheReload is time stalled moving missed data into the local
	// cache — the migration-induced reload cost affinity scheduling
	// avoids.
	CacheReload float64 `json:"cache_reload"`
	// Interconnect is time queueing for the shared bus/network.
	Interconnect float64 `json:"interconnect"`
	// QueueWait is time waiting to be served by work queues (central
	// serialisation, contended local queues, steal latency).
	QueueWait float64 `json:"queue_wait"`
	// Idle is the remainder of the span: barrier waits for stragglers,
	// delayed starts, and exhausted-queue spinning.
	Idle float64 `json:"idle"`
}

// Get returns one bucket's value.
func (b Buckets) Get(k BucketKind) float64 {
	switch k {
	case BucketCompute:
		return b.Compute
	case BucketCacheReload:
		return b.CacheReload
	case BucketInterconnect:
		return b.Interconnect
	case BucketQueueWait:
		return b.QueueWait
	case BucketIdle:
		return b.Idle
	}
	return 0
}

// Sum returns the total across all buckets.
func (b Buckets) Sum() float64 {
	return b.Compute + b.CacheReload + b.Interconnect + b.QueueWait + b.Idle
}

// Busy returns the non-idle total.
func (b Buckets) Busy() float64 { return b.Sum() - b.Idle }

// Map returns the buckets as a name→value map (for JSON summaries).
func (b Buckets) Map() map[string]float64 {
	m := make(map[string]float64, len(BucketOrder))
	for _, k := range BucketOrder {
		m[string(k)] = b.Get(k)
	}
	return m
}

func (b *Buckets) add(o Buckets) {
	b.Compute += o.Compute
	b.CacheReload += o.CacheReload
	b.Interconnect += o.Interconnect
	b.QueueWait += o.QueueWait
	b.Idle += o.Idle
}

func (b *Buckets) scale(f float64) Buckets {
	return Buckets{b.Compute * f, b.CacheReload * f, b.Interconnect * f, b.QueueWait * f, b.Idle * f}
}

// recBuckets extracts one provenance record's execution-window
// decomposition. Any residual of the window not covered by the three
// cost fields (only ever float noise on the simulator; zero on the
// real runtime, which reports the whole window as Compute) is folded
// into Compute so bucket sums stay exact.
func recBuckets(r telemetry.Prov) Buckets {
	b := Buckets{
		Compute:      r.Compute,
		CacheReload:  r.CacheReload,
		Interconnect: r.BusWait,
		QueueWait:    r.QueueWait,
	}
	if resid := (r.End - r.Start) - (r.Compute + r.CacheReload + r.BusWait); resid > 0 {
		b.Compute += resid
	}
	return b
}

// ProcAttribution is one processor's span decomposition.
type ProcAttribution struct {
	Proc int `json:"proc"`
	// Span is the common analysis window (makespan − run start); the
	// buckets sum to it exactly.
	Span    float64 `json:"span"`
	Buckets Buckets `json:"buckets"`
	// Chunks executed, of which StolenChunks (covering StolenIters
	// iterations) migrated from another queue.
	Chunks       int `json:"chunks"`
	StolenChunks int `json:"stolen_chunks"`
	StolenIters  int `json:"stolen_iters"`
	// Misses is the cache misses charged to this processor (simulator
	// traces only).
	Misses int `json:"misses"`
}

// StealEdge is one aggregated edge of the steal graph.
type StealEdge struct {
	Victim int `json:"victim"`
	Thief  int `json:"thief"`
	Count  int `json:"count"`
	Iters  int `json:"iters"`
}

// PathSeg is one segment of the critical path: an executed chunk, a
// queue wait, or an idle gap on the step's straggling processor.
type PathSeg struct {
	Step   int     `json:"step"`
	Proc   int     `json:"proc"`
	Kind   string  `json:"kind"` // "exec", "queue-wait", "idle"
	Lo     int     `json:"lo,omitempty"`
	Hi     int     `json:"hi,omitempty"`
	Stolen bool    `json:"stolen,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// Dur returns the segment's duration.
func (s PathSeg) Dur() float64 { return s.End - s.Start }

// Analysis is the full forensic breakdown of one execution trace.
type Analysis struct {
	Meta telemetry.TraceMeta `json:"meta"`
	// Start is the trace's earliest timestamp, Makespan its latest;
	// Span = Makespan − Start is every processor's analysis window.
	Start    float64 `json:"start"`
	Makespan float64 `json:"makespan"`
	Span     float64 `json:"span"`
	Steps    int     `json:"steps"`
	// Procs holds one attribution per processor; TotalBuckets sums
	// them and AvgBuckets divides by the processor count (AvgBuckets
	// sums to Span, making cross-run deltas an exact decomposition of
	// the makespan difference).
	Procs        []ProcAttribution `json:"procs"`
	TotalBuckets Buckets           `json:"total_buckets"`
	AvgBuckets   Buckets           `json:"avg_buckets"`
	// Steal graph.
	Steals        []StealEdge `json:"steals,omitempty"`
	StealCount    int         `json:"steal_count"`
	MigratedIters int         `json:"migrated_iters"`
	// CriticalPath is the per-step straggler chain that determines the
	// makespan; PathBuckets decomposes it.
	CriticalPath []PathSeg `json:"critical_path"`
	PathBuckets  Buckets   `json:"path_buckets"`
}

// TopOverhead returns the largest non-compute bucket of the average
// per-processor decomposition — the execution's dominant overhead.
func (a *Analysis) TopOverhead() (BucketKind, float64) {
	best, bestV := BucketIdle, -1.0
	for _, k := range BucketOrder[1:] {
		if v := a.AvgBuckets.Get(k); v > bestV {
			best, bestV = k, v
		}
	}
	return best, bestV
}

// Analyze builds the full forensic breakdown of a trace. Every
// per-chunk quantity — attribution, steals, the critical path's
// chunks — comes from the provenance records; the event stream only
// widens the analysis window to the phase marks and dates each step's
// begin.
func Analyze(t *telemetry.TraceFile) (*Analysis, error) {
	prov := t.Prov
	if len(prov) == 0 {
		return nil, fmt.Errorf("forensics: trace has no provenance records")
	}

	procs := t.Meta.Procs
	start, end := prov[0].Start-prov[0].QueueWait, prov[0].End
	for _, r := range prov {
		if r.Proc >= procs {
			procs = r.Proc + 1
		}
		if s := r.Start - r.QueueWait; s < start {
			start = s
		}
		if r.End > end {
			end = r.End
		}
	}
	for _, e := range t.Events {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}

	a := &Analysis{
		Meta:     t.Meta,
		Start:    start,
		Makespan: end,
		Span:     end - start,
		Procs:    make([]ProcAttribution, procs),
	}
	a.Meta.Procs = procs

	// Per-processor attribution: sum each chunk's decomposition, then
	// close the span with idle.
	steps := map[int]bool{}
	for p := range a.Procs {
		a.Procs[p].Proc = p
		a.Procs[p].Span = a.Span
	}
	for _, r := range prov {
		pa := &a.Procs[r.Proc]
		pa.Buckets.add(recBuckets(r))
		pa.Chunks++
		pa.Misses += r.Misses
		if r.Stolen {
			pa.StolenChunks++
			pa.StolenIters += r.Iters()
		}
		steps[r.Step] = true
	}
	a.Steps = len(steps)
	for p := range a.Procs {
		pa := &a.Procs[p]
		idle := pa.Span - pa.Buckets.Sum()
		if idle < 0 {
			// Float accumulation can leave the busy total a hair over
			// the span; clamp rather than reporting negative idle.
			idle = 0
		}
		pa.Buckets.Idle = idle
		a.TotalBuckets.add(pa.Buckets)
	}
	if procs > 0 {
		a.AvgBuckets = a.TotalBuckets.scale(1 / float64(procs))
	}

	a.Steals, a.StealCount, a.MigratedIters = stealGraph(prov)
	a.CriticalPath, a.PathBuckets = criticalPath(t.Events, prov)
	return a, nil
}

// stealGraph aggregates migration edges from the stolen chunks'
// records: each is its steal's one record (victim Owner, thief Proc).
func stealGraph(prov []telemetry.Prov) ([]StealEdge, int, int) {
	type key struct{ v, t int }
	agg := map[key]*StealEdge{}
	for _, r := range prov {
		if !r.Stolen {
			continue
		}
		k := key{r.Owner, r.Proc}
		e, ok := agg[k]
		if !ok {
			e = &StealEdge{Victim: r.Owner, Thief: r.Proc}
			agg[k] = e
		}
		e.Count++
		e.Iters += r.Iters()
	}
	edges := make([]StealEdge, 0, len(agg))
	count, iters := 0, 0
	for _, e := range agg {
		edges = append(edges, *e)
		count += e.Count
		iters += e.Iters
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Iters != edges[j].Iters {
			return edges[i].Iters > edges[j].Iters
		}
		if edges[i].Victim != edges[j].Victim {
			return edges[i].Victim < edges[j].Victim
		}
		return edges[i].Thief < edges[j].Thief
	})
	return edges, count, iters
}

// criticalPath walks, step by step, the straggling processor's
// timeline — the chain of queue waits, chunk executions and idle gaps
// that determines when each barrier (and hence the makespan) falls.
func criticalPath(events []telemetry.Event, prov []telemetry.Prov) ([]PathSeg, Buckets) {
	byStep := map[int][]telemetry.Prov{}
	for _, r := range prov {
		byStep[r.Step] = append(byStep[r.Step], r)
	}
	stepStart := map[int]float64{}
	for _, e := range events {
		if e.Kind == telemetry.KindPhaseBegin {
			stepStart[e.Step] = e.Start
		}
	}
	order := make([]int, 0, len(byStep))
	for s := range byStep {
		order = append(order, s)
	}
	sort.Ints(order)

	var path []PathSeg
	var buckets Buckets
	const eps = 1e-9
	for _, s := range order {
		recs := byStep[s]
		// The straggler: the processor whose last chunk ends latest.
		straggler, stepEnd := -1, 0.0
		for _, r := range recs {
			if straggler < 0 || r.End > stepEnd {
				straggler, stepEnd = r.Proc, r.End
			}
		}
		var mine []telemetry.Prov
		begin, haveBegin := stepStart[s]
		for _, r := range recs {
			if r.Proc == straggler {
				mine = append(mine, r)
			}
			if t := r.Start - r.QueueWait; !haveBegin || t < begin {
				begin, haveBegin = t, true
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].Start < mine[j].Start })
		cursor := begin
		for _, r := range mine {
			waitStart := r.Start - r.QueueWait
			if waitStart > cursor+eps {
				path = append(path, PathSeg{Step: s, Proc: straggler, Kind: "idle",
					Start: cursor, End: waitStart})
				buckets.Idle += waitStart - cursor
			}
			if r.QueueWait > 0 {
				path = append(path, PathSeg{Step: s, Proc: straggler, Kind: "queue-wait",
					Start: waitStart, End: r.Start})
				buckets.QueueWait += r.QueueWait
			}
			path = append(path, PathSeg{Step: s, Proc: straggler, Kind: "exec",
				Lo: r.Lo, Hi: r.Hi, Stolen: r.Stolen, Start: r.Start, End: r.End})
			rb := recBuckets(r)
			buckets.Compute += rb.Compute
			buckets.CacheReload += rb.CacheReload
			buckets.Interconnect += rb.Interconnect
			if r.End > cursor {
				cursor = r.End
			}
		}
	}
	return path, buckets
}
