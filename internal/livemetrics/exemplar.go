package livemetrics

import (
	"sort"

	"repro/internal/spantrace"
)

// Exemplar links one retained submission to its span trace: the
// latency it contributed to the rolling histogram, the histogram
// bucket it landed in, and the trace ID that resolves to a full span
// tree (`loopdoctor trace <id>`, /trace?id=).
type Exemplar struct {
	TraceID   uint64  `json:"trace_id"`
	LatencyNS float64 `json:"latency_ns"`
	BucketNS  float64 `json:"bucket_ns"` // histogram bucket upper bound
	AgeSecs   float64 `json:"age_seconds"`
	atNS      int64
}

// exemplarsPerBucket bounds retention: keeping the slowest few per
// bucket (rather than globally) preserves exemplars across the whole
// latency distribution, so both "what does a typical p50 look like"
// and "what caused the p99" resolve to traces.
const exemplarsPerBucket = 2

// exemplarStore retains the slowest traced submissions per histogram
// bucket within the rolling window. It is fed once per submission,
// under the plane's mutex, which guards it. A bucket drops its expired
// exemplars (and their pins) at its next observation, so at most
// exemplarsPerBucket traces per bucket stay pinned.
type exemplarStore struct {
	windowNS int64
	bounds   []float64
	buckets  [][]Exemplar
}

func newExemplarStore(windowNS int64, bounds []float64) *exemplarStore {
	return &exemplarStore{
		windowNS: windowNS,
		bounds:   bounds,
		buckets:  make([][]Exemplar, len(bounds)+1),
	}
}

func (s *exemplarStore) bucket(v float64) int {
	return sort.SearchFloat64s(s.bounds, v)
}

func (s *exemplarStore) boundOf(b int) float64 {
	if b < len(s.bounds) {
		return s.bounds[b]
	}
	if len(s.bounds) > 0 {
		return s.bounds[len(s.bounds)-1]
	}
	return 0
}

// observe retains the submission if it is among the bucket's slowest
// within the window. traceID 0 (untraced submission) is ignored. t
// (nil-safe) holds a pin on every retained exemplar's trace, taken and
// released with the retention change so pins match retention exactly.
func (s *exemplarStore) observe(nowNS int64, latencyNS float64, traceID uint64, t *spantrace.Tracer) {
	if traceID == 0 {
		return
	}
	b := s.bucket(latencyNS)
	e := Exemplar{TraceID: traceID, LatencyNS: latencyNS, BucketNS: s.boundOf(b), atNS: nowNS}
	kept := s.buckets[b][:0]
	for _, old := range s.buckets[b] {
		if nowNS-old.atNS <= s.windowNS {
			kept = append(kept, old)
		} else {
			t.Unpin(old.TraceID)
		}
	}
	t.Pin(traceID)
	kept = append(kept, e)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].LatencyNS > kept[j].LatencyNS })
	if len(kept) > exemplarsPerBucket {
		for _, gone := range kept[exemplarsPerBucket:] {
			t.Unpin(gone.TraceID)
		}
		kept = kept[:exemplarsPerBucket]
	}
	s.buckets[b] = kept
}

// snapshot returns the live exemplars, slowest first — the head is
// the current tail-latency exemplar, the one CI resolves end to end.
func (s *exemplarStore) snapshot(nowNS int64) []Exemplar {
	var out []Exemplar
	for _, b := range s.buckets {
		for _, e := range b {
			if nowNS-e.atNS <= s.windowNS {
				e.AgeSecs = float64(nowNS-e.atNS) / 1e9
				out = append(out, e)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].LatencyNS > out[j].LatencyNS })
	return out
}
