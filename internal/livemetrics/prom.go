package livemetrics

import (
	"io"
	"sort"
	"strconv"

	"repro/internal/promtext"
)

// tenantFamilies are the per-tenant admission counters.
var tenantFamilies = []struct {
	name, help string
	value      func(TenantSnapshot) int64
}{
	{"loopsched_tenant_submitted_total", "Jobs submitted by the tenant.", func(t TenantSnapshot) int64 { return t.Submitted }},
	{"loopsched_tenant_admitted_total", "Tenant jobs admitted.", func(t TenantSnapshot) int64 { return t.Admitted }},
	{"loopsched_tenant_shed_total", "Tenant jobs shed by overload protection.", func(t TenantSnapshot) int64 { return t.Shed }},
	{"loopsched_tenant_rejected_total", "Tenant jobs rejected as invalid.", func(t TenantSnapshot) int64 { return t.Rejected }},
	{"loopsched_tenant_completed_total", "Tenant jobs that finished executing (goodput).", func(t TenantSnapshot) int64 { return t.Completed }},
}

// windowCount is the help text of every rolling quantile's _count.
const windowCount = "Observations in the rolling window."

// WriteProm renders a snapshot in the Prometheus text exposition
// format (version 0.0.4) — the integration surface for fleet
// monitoring, scraped at /metrics.prom. Every metric is prefixed
// loopsched_; quantiles are gauges carrying a quantile label, and the
// retained latency exemplars appear as gauges labelled with their
// trace IDs so an alert on the p99 series links straight to a span
// tree.
func WriteProm(w io.Writer, s Snapshot) error {
	pw := promtext.NewWriter(w)
	pw.Counter("loopsched_submissions_total", "Submissions observed since the plane started.", s.Counters.Submissions)
	pw.Counter("loopsched_submissions_completed_total", "Submissions that ran to completion.", s.Counters.Completed)
	pw.Counter("loopsched_submissions_cancelled_total", "Submissions stopped by their context.", s.Counters.Cancellations)
	pw.Counter("loopsched_submissions_panicked_total", "Submissions whose loop body panicked.", s.Counters.Panics)
	pw.Counter("loopsched_chunks_total", "Chunks executed across all workers.", s.Counters.Chunks)
	pw.Counter("loopsched_steals_total", "Successful steal operations.", s.Counters.Steals)
	pw.Counter("loopsched_migrated_iters_total", "Iterations moved by steals.", s.Counters.MigratedIters)
	pw.Counter("loopsched_flight_dropped_events_total", "Flight-recorder event evictions.", s.FlightDroppedEvents)
	pw.Counter("loopsched_flight_dropped_prov_total", "Flight-recorder provenance evictions.", s.FlightDroppedProv)
	pw.Family("loopsched_uptime_seconds", "gauge", "Seconds since the plane started.")
	pw.Float("loopsched_uptime_seconds", s.UptimeSeconds)

	pw.Quantiles("loopsched_submission_latency_ns", "Rolling submission wall latency (ns).", windowCount,
		s.Submission.Count, s.Submission.P50, s.Submission.P90, s.Submission.P99)
	pw.Quantiles("loopsched_chunk_latency_ns", "Rolling chunk execution latency (ns).", windowCount,
		s.Chunk.Count, s.Chunk.P50, s.Chunk.P90, s.Chunk.P99)
	pw.Quantiles("loopsched_steal_latency_ns", "Rolling steal latency (ns).", windowCount,
		s.Steal.Count, s.Steal.P50, s.Steal.P90, s.Steal.P99)

	pw.Family("loopsched_worker_chunks_total", "counter", "Chunks executed by the worker.")
	for _, ws := range s.Workers {
		pw.Int("loopsched_worker_chunks_total", ws.Chunks, "worker", strconv.Itoa(ws.Worker))
	}
	pw.Family("loopsched_worker_affinity_hit_ratio", "gauge", "Un-stolen chunks run on their static owner / all chunks.")
	for _, ws := range s.Workers {
		pw.Float("loopsched_worker_affinity_hit_ratio", ws.AffinityHitRatio, "worker", strconv.Itoa(ws.Worker))
	}
	pw.Family("loopsched_worker_utilization", "gauge", "Busy-time fraction over the last sample interval.")
	for _, ws := range s.Workers {
		pw.Float("loopsched_worker_utilization", ws.Utilization, "worker", strconv.Itoa(ws.Worker))
	}
	pw.Family("loopsched_worker_queue_depth", "gauge", "Queued iterations in the worker's queue.")
	for _, ws := range s.Workers {
		pw.Int("loopsched_worker_queue_depth", int64(ws.QueueDepth), "worker", strconv.Itoa(ws.Worker))
	}

	if a := s.Admission; a != nil {
		pw.Counter("loopsched_admission_admitted_total", "Jobs admitted by the serving layer.", a.Admitted)
		pw.Counter("loopsched_admission_shed_total", "Jobs shed by quota or queue overload (HTTP 429).", a.Shed)
		pw.Counter("loopsched_admission_rejected_total", "Jobs rejected as invalid or unservable.", a.Rejected)
		pw.Quantiles("loopsched_admission_wait_ns", "Rolling admission queue wait of admitted jobs (ns).", windowCount,
			a.Wait.Count, a.Wait.P50, a.Wait.P90, a.Wait.P99)
		for _, fam := range tenantFamilies {
			pw.Family(fam.name, "counter", fam.help)
			for _, ts := range a.Tenants {
				pw.Int(fam.name, fam.value(ts), "tenant", ts.Tenant)
			}
		}
	}

	if len(s.SubmissionExemplars) > 0 {
		pw.Family("loopsched_submission_exemplar_latency_ns", "gauge",
			"Retained traced submissions, slowest first; trace_id resolves via /trace?id= or loopdoctor trace.")
		// The exposition format forbids duplicate label sets; exemplars
		// are unique by trace ID, but guard anyway in case one trace is
		// retained in two buckets after a histogram reconfiguration.
		seen := make(map[uint64]bool, len(s.SubmissionExemplars))
		ordered := append([]Exemplar(nil), s.SubmissionExemplars...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].LatencyNS > ordered[j].LatencyNS })
		for i, e := range ordered {
			if seen[e.TraceID] {
				continue
			}
			seen[e.TraceID] = true
			pw.Float("loopsched_submission_exemplar_latency_ns", e.LatencyNS,
				"trace_id", strconv.FormatUint(e.TraceID, 10), "rank", strconv.Itoa(i))
		}
	}
	return pw.Err()
}
