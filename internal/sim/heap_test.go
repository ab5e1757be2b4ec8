package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is container/heap over the same (time, seq) order: the
// reference the typed eventHeap must reproduce pop for pop, with
// replaceTop standing for a Pop followed by a Push.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var got eventHeap
		var ref refHeap
		// Few distinct times, so most comparisons fall through to seq;
		// seqs are unique but pushed out of order.
		distinct := 1 + rng.Intn(6)
		seqs := rng.Perm(500)
		for op := 0; op < 500; op++ {
			if len(got) != ref.Len() {
				t.Fatalf("trial %d op %d: len %d, reference %d", trial, op, len(got), ref.Len())
			}
			ev := event{time: float64(rng.Intn(distinct)), seq: int64(seqs[op]), proc: rng.Intn(64)}
			switch choice := rng.Intn(4); {
			case len(got) > 0 && choice == 0:
				g, r := got.pop(), heap.Pop(&ref).(event)
				if g != r {
					t.Fatalf("trial %d op %d: popped %+v, reference %+v", trial, op, g, r)
				}
			case len(got) > 0 && choice == 1:
				// The event loop's in-place re-key: the reference pops
				// the top and pushes the replacement.
				if got[0] != ref[0] {
					t.Fatalf("trial %d op %d: top %+v, reference %+v", trial, op, got[0], ref[0])
				}
				got.replaceTop(ev)
				heap.Pop(&ref)
				heap.Push(&ref, ev)
			default:
				got.push(ev)
				heap.Push(&ref, ev)
			}
		}
		for ref.Len() > 0 {
			if g, r := got.pop(), heap.Pop(&ref).(event); g != r {
				t.Fatalf("trial %d drain: popped %+v, reference %+v", trial, g, r)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d events left after the reference drained", trial, len(got))
		}
	}
}
