package livemetrics

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// rollingHist is a lock-free windowed latency histogram: a ring of
// time slots, each holding exponential bucket counters. Observations
// land in the slot owning the current instant; quantile queries merge
// the slots still inside the window, so estimates always describe the
// last Window of activity and old load drops out slot by slot.
// Rotation is cooperative — the first observer to touch an expired
// slot CAS-claims it, zeroes the counters and only then publishes the
// slot's new epoch; observers that find the slot mid-rotation yield
// until it is published, so an add is zeroed away only by the slot's
// next rotation, a whole window later, and no reader merges a
// half-zeroed slot. There is no background
// goroutine and no lock. A slot only ever rolls forward: an observer
// whose instant predates the slot's epoch adds into the newer slot.
type rollingHist struct {
	slotNS int64     // nanoseconds covered by one slot
	bounds []float64 // bucket upper bounds, ascending
	slots  []histSlot
}

type histSlot struct {
	// epoch is the absolute slot index (now/slotNS) the counts belong
	// to; a mismatch with the current index means the slot is stale.
	epoch  atomic.Int64
	counts []atomic.Int64 // len(bounds)+1; the last bucket is overflow
}

// rotating marks a slot whose counts are being zeroed for a new epoch
// (real epochs are ≥ 0; -1 is a slot never used).
const rotating = -2

// newRollingHist divides a window of windowNS into slots ring slots
// over the given bucket bounds.
func newRollingHist(windowNS int64, slots int, bounds []float64) *rollingHist {
	if slots < 1 {
		slots = 1
	}
	slotNS := windowNS / int64(slots)
	if slotNS < 1 {
		slotNS = 1
	}
	h := &rollingHist{slotNS: slotNS, bounds: bounds, slots: make([]histSlot, slots)}
	for i := range h.slots {
		h.slots[i].epoch.Store(-1)
		h.slots[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// observe records one value at the given monotonic instant.
func (h *rollingHist) observe(nowNS int64, v float64) {
	idx := nowNS / h.slotNS
	s := &h.slots[int(idx%int64(len(h.slots)))]
	for {
		switch e := s.epoch.Load(); {
		case e >= idx:
			s.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
			return
		case e == rotating:
			runtime.Gosched()
		case s.epoch.CompareAndSwap(e, rotating):
			for i := range s.counts {
				s.counts[i].Store(0)
			}
			s.epoch.Store(idx)
		}
	}
}

// merged sums the bucket counts of every slot still inside the window
// ending at nowNS, plus the grand total.
func (h *rollingHist) merged(nowNS int64) ([]int64, int64) {
	cur := nowNS / h.slotNS
	counts := make([]int64, len(h.bounds)+1)
	var total int64
	for i := range h.slots {
		s := &h.slots[i]
		if e := s.epoch.Load(); e >= 0 && e > cur-int64(len(h.slots)) && e <= cur {
			for b := range counts {
				c := s.counts[b].Load()
				counts[b] += c
				total += c
			}
		}
	}
	return counts, total
}

// count reports the number of observations inside the live window.
func (h *rollingHist) count(nowNS int64) int64 {
	_, total := h.merged(nowNS)
	return total
}

// quantiles estimates the given quantiles over the live window,
// linear-interpolating within the winning bucket. All zeros when the
// window is empty.
func (h *rollingHist) quantiles(nowNS int64, qs ...float64) []float64 {
	counts, total := h.merged(nowNS)
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	for i, q := range qs {
		out[i] = bucketQuantile(h.bounds, counts, total, q)
	}
	return out
}

// bucketQuantile inverts a cumulative bucket distribution at q,
// assuming values are uniform within their bucket. The overflow bucket
// clamps to the last bound.
func bucketQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for b, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || b == len(counts)-1 {
			if b >= len(bounds) {
				return bounds[len(bounds)-1] // overflow: clamp
			}
			lo := 0.0
			if b > 0 {
				lo = bounds[b-1]
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(bounds[b]-lo)
		}
		cum = next
	}
	return 0
}
