package serve

import (
	"container/heap"
	"math"
	"sync"
	"time"
)

// bucket is a token bucket enforcing one tenant's admission quota.
// Time is injected (the server's clock), so quota behaviour is exactly
// reproducible under a fake clock in tests and CI gates. rate == 0
// means unlimited — the bucket always admits.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) *bucket {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take spends one token if available. When the bucket is dry it
// reports the delay until the next token accrues — the Retry-After a
// shed response carries, so well-behaved clients back off to exactly
// the sustainable rate instead of hammering.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// entry is one job waiting for dispatch, tagged with its SFQ virtual
// start/finish times.
type entry struct {
	e        *submission
	start    float64
	finish   float64
	seq      uint64
	enqueued time.Time
	index    int // position in the heap; -1 once popped or removed
}

// wfq is a start-time fair queue (SFQ) over tenants: each arriving job
// is stamped start = max(virtualTime, tenant's last finish) and
// finish = start + 1/weight, dispatch always takes the smallest finish
// tag, and virtual time advances to the start tag of the job entering
// service. Backlogged tenants therefore share dispatch slots in
// proportion to their weights regardless of how fast each one submits
// — the fairness half of admission control, complementing the token
// buckets' absolute quotas. Depth is bounded; push refuses (the caller
// sheds) rather than queue unboundedly.
type wfq struct {
	mu         sync.Mutex
	cond       *sync.Cond
	limit      int
	vtime      float64
	lastFinish map[string]float64
	heap       entryHeap
	seq        uint64
	closed     bool
}

func newWFQ(limit int) *wfq {
	q := &wfq{limit: limit, lastFinish: make(map[string]float64)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues under the tenant's weight and returns the job's entry;
// nil means the queue is at its depth bound (or closed) and the job
// must be shed.
func (q *wfq) push(j *submission, weight float64, now time.Time) *entry {
	if weight <= 0 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.heap.Len() >= q.limit {
		return nil
	}
	s := math.Max(q.vtime, q.lastFinish[j.tenant])
	f := s + 1/weight
	q.lastFinish[j.tenant] = f
	q.seq++
	en := &entry{e: j, start: s, finish: f, seq: q.seq, enqueued: now}
	heap.Push(&q.heap, en)
	q.cond.Signal()
	return en
}

// remove takes a withdrawn job's entry out of the queue at once, so it
// no longer counts toward the depth bound; the other entries keep
// their tags. A no-op once the entry has been popped.
func (q *wfq) remove(en *entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if en.index >= 0 {
		heap.Remove(&q.heap, en.index)
	}
}

// pop blocks for the next job in virtual-finish order, advancing
// virtual time to its start tag. nil means the queue closed.
func (q *wfq) pop() *entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.heap.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.heap.Len() == 0 {
		return nil
	}
	en := heap.Pop(&q.heap).(*entry)
	q.vtime = math.Max(q.vtime, en.start)
	return en
}

// depth reports the current backlog.
func (q *wfq) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.heap.Len()
}

// close wakes all poppers and returns the undispatched backlog so the
// server can fail each waiter with ErrClosed.
func (q *wfq) close() []*entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	orphans := make([]*entry, 0, q.heap.Len())
	for q.heap.Len() > 0 {
		orphans = append(orphans, heap.Pop(&q.heap).(*entry))
	}
	q.cond.Broadcast()
	return orphans
}

// entryHeap orders by (finish tag, arrival) — SFQ dispatch order with
// FIFO tie-breaking.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *entryHeap) Push(x any) {
	en := x.(*entry)
	en.index = len(*h)
	*h = append(*h, en)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	x.index = -1
	*h = old[:n-1]
	return x
}
