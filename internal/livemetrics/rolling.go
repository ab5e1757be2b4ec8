package livemetrics

import "sort"

// rollingHist is a windowed latency histogram: a ring of time slots,
// each holding exponential bucket counters. Observations land in the
// slot owning the current instant; quantile queries merge the slots
// still inside the window, so estimates always describe the last
// Window of activity and old load drops out slot by slot, with no
// background goroutine. The first observation to reach an expired
// slot zeroes it for its new epoch. A slot only ever rolls forward: an
// observation whose instant predates the slot's epoch adds into the
// newer slot. Not safe for concurrent use: the plane's mutex guards
// every histogram.
type rollingHist struct {
	slotNS int64     // nanoseconds covered by one slot
	bounds []float64 // bucket upper bounds, ascending
	slots  []histSlot
}

type histSlot struct {
	// epoch is the absolute slot index (now/slotNS) the counts belong
	// to (-1: never used); a mismatch with the current index means the
	// slot is stale.
	epoch  int64
	counts []int64 // len(bounds)+1; the last bucket is overflow
}

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
		h.slots[i] = histSlot{epoch: -1, counts: make([]int64, len(bounds)+1)}
	}
	return h
}

// observe records one value at the given monotonic instant.
func (h *rollingHist) observe(nowNS int64, v float64) {
	idx := nowNS / h.slotNS
	s := &h.slots[int(idx%int64(len(h.slots)))]
	if s.epoch < idx {
		clear(s.counts)
		s.epoch = idx
	}
	s.counts[sort.SearchFloat64s(h.bounds, v)]++
}

// merged sums the bucket counts of every slot still inside the window
// ending at nowNS, plus the grand total.
func (h *rollingHist) merged(nowNS int64) ([]int64, int64) {
	cur := nowNS / h.slotNS
	counts := make([]int64, len(h.bounds)+1)
	var total int64
	for i := range h.slots {
		s := &h.slots[i]
		if e := s.epoch; e >= 0 && e > cur-int64(len(h.slots)) && e <= cur {
			for b, c := range s.counts {
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
