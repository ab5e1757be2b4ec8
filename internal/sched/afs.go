package sched

// This file contains the paper's primary contribution: the affinity
// scheduling (AFS) policy of §2.2, expressed as pure queue manipulation
// so both execution engines (simulator and goroutine runtime) share one
// implementation of the rules:
//
//   - iterations are divided into P chunks of ⌈N/P⌉; chunk i is always
//     placed on processor i's local queue (deterministic assignment);
//   - an idle processor removes 1/k of its local queue's iterations
//     (k = P by default) and executes them;
//   - a processor with an empty queue finds the most-loaded queue,
//     removes ⌈1/P⌉ of its iterations, and executes them indivisibly —
//     so an iteration is reassigned at most once.

// Queue is one processor's local work queue: an ordered list of
// non-empty chunks. The zero value is an empty queue. Queue performs no
// locking; engines layer their own synchronisation (whose cost is the
// measured quantity).
//
// The queued chunks are chunks[head:]. Taking from the front advances
// head rather than reslicing, and a queue that empties rewinds to the
// start of its array, so a queue refilled every phase reuses the same
// storage.
type Queue struct {
	chunks []Chunk
	head   int
	total  int
}

// Len returns the number of iterations currently queued.
func (q *Queue) Len() int { return q.total }

// NumChunks returns how many discontiguous chunks the queue holds
// (fragmentation metric for the AFS-LE extension).
func (q *Queue) NumChunks() int { return len(q.chunks) - q.head }

// Reset empties the queue, keeping its storage for the next pushes.
func (q *Queue) Reset() {
	q.chunks, q.head, q.total = q.chunks[:0], 0, 0
}

// Push appends a chunk to the back of the queue. Empty chunks are
// ignored. Adjacent pushes that extend the tail are coalesced, keeping
// queues contiguous under classic AFS.
func (q *Queue) Push(c Chunk) {
	if c.Empty() {
		return
	}
	if n := len(q.chunks); n > q.head && q.chunks[n-1].Hi == c.Lo {
		q.chunks[n-1].Hi = c.Hi
	} else {
		q.chunks = append(q.chunks, c)
	}
	q.total += c.Len()
}

// TakeFront removes up to max iterations from the front of the queue.
// The take is clipped to the queue's head chunk so the result is always
// one contiguous range (a fragmented queue therefore needs more queue
// operations — the fragmentation cost §4.3 discusses for AFS-LE).
func (q *Queue) TakeFront(max int) (Chunk, bool) {
	if q.total == 0 || max <= 0 {
		return Chunk{}, false
	}
	head := &q.chunks[q.head]
	n := max
	if n > head.Len() {
		n = head.Len()
	}
	c := Chunk{head.Lo, head.Lo + n}
	head.Lo += n
	q.total -= n
	if q.total == 0 {
		q.Reset()
	} else if head.Empty() {
		q.head++
	}
	return c, true
}

// TakeBack removes up to max iterations from the back of the queue,
// clipped to the tail chunk. Thieves steal from the back so the owner's
// front-of-queue locality is preserved.
func (q *Queue) TakeBack(max int) (Chunk, bool) {
	if q.total == 0 || max <= 0 {
		return Chunk{}, false
	}
	tail := &q.chunks[len(q.chunks)-1]
	n := max
	if n > tail.Len() {
		n = tail.Len()
	}
	c := Chunk{tail.Hi - n, tail.Hi}
	tail.Hi -= n
	q.total -= n
	if q.total == 0 {
		q.Reset()
	} else if tail.Empty() {
		q.chunks = q.chunks[:len(q.chunks)-1]
	}
	return c, true
}

// AFS holds the affinity-scheduling parameters. The zero value is the
// paper's default configuration (k = P).
type AFS struct {
	// K is the local-take denominator: a processor removes ⌈L/K⌉ of the
	// L iterations on its local queue per access. K = 0 means K = P,
	// the paper's default (§3: small initial chunks N/P², best load
	// balancing; smaller K trades local queue accesses for imbalance).
	K int
}

// Name returns "AFS" or "AFS(k=...)" for non-default K.
func (a AFS) Name() string {
	if a.K == 0 {
		return "AFS"
	}
	return "AFS(k=" + itoa(a.K) + ")"
}

// LocalAmount returns how many iterations a processor takes from its own
// queue of length l on a p-processor machine: ⌈l/k⌉.
func (a AFS) LocalAmount(l, p int) int {
	if l <= 0 {
		return 0
	}
	k := a.K
	if k <= 0 {
		k = p
	}
	if k < 1 {
		k = 1
	}
	return CeilDiv(l, k)
}

// StealAmount returns how many iterations a thief takes from a victim
// queue of length l on a p-processor machine: ⌈l/P⌉.
func (a AFS) StealAmount(l, p int) int {
	if l <= 0 {
		return 0
	}
	if p < 1 {
		p = 1
	}
	return CeilDiv(l, p)
}

// MostLoaded returns the index of the longest queue given the per-queue
// lengths, or -1 if every queue is empty. Ties break toward the lowest
// index, matching the paper's implementation ("examine the work queues
// of all the other processors and remove work from the queue with the
// most iterations"). Reading lengths requires no synchronisation (§2.2
// footnote 4).
func MostLoaded(lens []int) int {
	best, bestLen := -1, 0
	for i, l := range lens {
		if l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// itoa converts small non-negative ints without importing strconv in
// this hot package.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
