package livemetrics

import "testing"

func TestExemplarStoreRetention(t *testing.T) {
	// One bucket boundary at 100ns: bucket 0 is ≤100, bucket 1 above.
	s := newExemplarStore(1_000, []float64{100})

	// Untraced submissions (trace ID 0) are never retained.
	s.observe(0, 50, 0, nil)
	if got := s.snapshot(0); len(got) != 0 {
		t.Fatalf("untraced submission retained: %+v", got)
	}

	// Per bucket only the slowest exemplarsPerBucket survive.
	s.observe(0, 10, 1, nil)
	s.observe(0, 30, 2, nil)
	s.observe(0, 20, 3, nil)
	got := s.snapshot(0)
	if len(got) != exemplarsPerBucket {
		t.Fatalf("retained %d exemplars, want %d", len(got), exemplarsPerBucket)
	}
	if got[0].TraceID != 2 || got[1].TraceID != 3 {
		t.Fatalf("kept wrong exemplars (want slowest first): %+v", got)
	}

	// A different bucket retains independently.
	s.observe(0, 500, 4, nil)
	got = s.snapshot(0)
	if len(got) != 3 || got[0].TraceID != 4 {
		t.Fatalf("cross-bucket retention wrong: %+v", got)
	}
	if got[0].BucketNS != 100 {
		t.Fatalf("overflow bucket bound = %v, want last bound", got[0].BucketNS)
	}

	// Exemplars age out of the rolling window on snapshot...
	if got := s.snapshot(2_000); len(got) != 0 {
		t.Fatalf("expired exemplars still visible: %+v", got)
	}
	// ...and on insert, so a fresh slow submission wins even if stale
	// entries were slower.
	s.observe(2_000, 15, 5, nil)
	got = s.snapshot(2_000)
	if len(got) != 1 || got[0].TraceID != 5 {
		t.Fatalf("stale exemplars crowd out fresh one: %+v", got)
	}
	if got[0].AgeSecs != 0 {
		t.Fatalf("fresh exemplar age = %v, want 0", got[0].AgeSecs)
	}
}
