package livemetrics

import (
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// splitmix64 is the repo's standard deterministic generator (same
// recurrence internal/stats uses for bootstrap resampling), so the
// accuracy tests never depend on math/rand seeding behaviour.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func unit(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / float64(1<<53)
}

// TestRollingQuantileAccuracy feeds known distributions through the
// rolling histogram and checks its p50/p90/p99 against the exact
// sample quantiles from internal/stats. The bucket layout grows by
// factor 1.5, so the estimate can sit anywhere inside the winning
// bucket: tolerance is ±35% relative, comfortably above the ≤~25%
// bucket-resolution error and far below the order-of-magnitude
// differences the dashboard exists to show.
func TestRollingQuantileAccuracy(t *testing.T) {
	dists := []struct {
		name string
		gen  func(state *uint64) float64
	}{
		// Uniform microseconds: the chunk-latency regime.
		{"uniform", func(s *uint64) float64 { return 1e3 + 99e3*unit(s) }},
		// Log-uniform over 4 decades: mixed chunk sizes.
		{"loguniform", func(s *uint64) float64 { return 1e2 * math.Pow(10, 4*unit(s)) }},
		// Bimodal: fast affinity hits plus slow stolen chunks.
		{"bimodal", func(s *uint64) float64 {
			if unit(s) < 0.8 {
				return 5e3 + 1e3*unit(s)
			}
			return 2e6 + 5e5*unit(s)
		}},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			h := newRollingHist(int64(10e9), 10, telemetry.ExpBuckets(1, 1.5, 64))
			state := uint64(0x5eed)
			xs := make([]float64, 20000)
			now := int64(1e9) // mid-window; all samples share the live window
			for i := range xs {
				xs[i] = d.gen(&state)
				h.observe(now, xs[i])
			}
			if got := h.count(now); got != int64(len(xs)) {
				t.Fatalf("count = %d, want %d", got, len(xs))
			}
			for _, q := range []float64{0.50, 0.90, 0.99} {
				want := stats.Quantile(xs, q)
				got := h.quantiles(now, q)[0]
				if want <= 0 {
					t.Fatalf("reference quantile %.2f is %g", q, want)
				}
				if rel := math.Abs(got-want) / want; rel > 0.35 {
					t.Errorf("p%.0f = %.4g, reference %.4g (%.0f%% off, want ≤35%%)",
						q*100, got, want, rel*100)
				}
			}
		})
	}
}

// TestRollingWindowExpiry pins the windowing semantics: samples vanish
// once the window has rolled past them, slot by slot, with no
// background goroutine doing the aging.
func TestRollingWindowExpiry(t *testing.T) {
	windowNS := int64(1e9)
	h := newRollingHist(windowNS, 10, telemetry.ExpBuckets(1, 1.5, 64))
	for i := int64(0); i < 100; i++ {
		h.observe(i*1e6, 1000) // all inside the first tenth of the window
	}
	if got := h.count(windowNS / 2); got != 100 {
		t.Fatalf("mid-window count = %d, want 100", got)
	}
	// Two windows later every slot holding those samples has expired.
	if got := h.count(2 * windowNS); got != 0 {
		t.Errorf("post-window count = %d, want 0", got)
	}
	// Quantiles of an empty window are all zero, not NaN.
	for _, q := range h.quantiles(2*windowNS, 0.5, 0.99) {
		if q != 0 {
			t.Errorf("empty-window quantile = %g, want 0", q)
		}
	}
	// New load after the gap is visible again.
	h.observe(2*windowNS+1, 500)
	if got := h.count(2*windowNS + 1); got != 1 {
		t.Errorf("post-gap count = %d, want 1", got)
	}
}

// TestRollingOverflowClamp: values beyond the last bucket bound clamp
// to it rather than extrapolating garbage.
func TestRollingOverflowClamp(t *testing.T) {
	bounds := telemetry.ExpBuckets(1, 1.5, 64)
	last := bounds[len(bounds)-1]
	h := newRollingHist(int64(1e9), 4, bounds)
	for i := 0; i < 50; i++ {
		h.observe(0, last*100)
	}
	if got := h.quantiles(0, 0.5)[0]; got != last {
		t.Errorf("overflow p50 = %g, want clamp to last bound %g", got, last)
	}
}

// TestRollingConcurrentRotationKeepsEveryAdd: many goroutines observe
// at once into a slot that has to roll to a new epoch first. Whichever
// of them rotates it, every add must survive the zeroing.
func TestRollingConcurrentRotationKeepsEveryAdd(t *testing.T) {
	const trials, goroutines, adds = 200, 8, 64
	bounds := telemetry.ExpBuckets(1, 1.5, 64)
	for trial := 0; trial < trials; trial++ {
		h := newRollingHist(int64(1e9), 10, bounds)
		h.observe(0, 1) // slot 0 holds epoch 0; the adds below roll it to epoch 10
		now := int64(1e9)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < adds; i++ {
					h.observe(now, 1000)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := h.count(now); got != goroutines*adds {
			t.Fatalf("trial %d: count = %d, want %d", trial, got, goroutines*adds)
		}
	}
}
