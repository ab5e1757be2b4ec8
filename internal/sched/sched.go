// Package sched implements the loop scheduling policies studied in
// Markatos & LeBlanc, "Using Processor Affinity in Loop Scheduling on
// Shared-Memory Multiprocessors" (Supercomputing 1992), plus the
// extensions the paper discusses.
//
// The policies are engine-agnostic: they only decide *which iterations a
// processor takes next*. Two execution engines consume them — the
// deterministic machine simulator (internal/sim) and the real goroutine
// runtime (internal/core). Keeping policy logic pure makes the paper's
// analytic properties (Theorems 3.1-3.3) directly testable.
//
// Two policy families exist:
//
//   - Central-queue policies (Sizer): self-scheduling, fixed chunking,
//     guided self-scheduling, factoring, trapezoid, tapering, adaptive
//     GSS. A single dispenser hands out chunks front-to-back; the policy
//     chooses the chunk size from the number of remaining iterations.
//   - Distributed-queue policies: affinity scheduling (AFS) and modified
//     factoring, which add processor identity to the decision.
package sched

import "fmt"

// A Chunk is a half-open range [Lo, Hi) of loop iteration indices.
type Chunk struct {
	Lo, Hi int
}

// Len returns the number of iterations in the chunk.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// Empty reports whether the chunk contains no iterations.
func (c Chunk) Empty() bool { return c.Hi <= c.Lo }

func (c Chunk) String() string { return fmt.Sprintf("[%d,%d)", c.Lo, c.Hi) }

// Split removes the first n iterations of c, returning them as head and
// the remainder as tail. n is clamped to [0, c.Len()].
func (c Chunk) Split(n int) (head, tail Chunk) {
	if n < 0 {
		n = 0
	}
	if n > c.Len() {
		n = c.Len()
	}
	return Chunk{c.Lo, c.Lo + n}, Chunk{c.Lo + n, c.Hi}
}

// SplitTail removes the last n iterations of c, returning the remainder
// as head and the removed range as tail. n is clamped to [0, c.Len()].
func (c Chunk) SplitTail(n int) (head, tail Chunk) {
	if n < 0 {
		n = 0
	}
	if n > c.Len() {
		n = c.Len()
	}
	return Chunk{c.Lo, c.Hi - n}, Chunk{c.Hi - n, c.Hi}
}

// A Sizer is a central-queue scheduling policy. The dispenser owning the
// loop's iteration space calls NextSize under mutual exclusion; the
// policy may therefore keep internal state (factoring's phase counter,
// trapezoid's chunk index).
type Sizer interface {
	// Name returns the policy's display name, e.g. "GSS".
	Name() string
	// Init prepares the policy for one execution of a loop with n
	// iterations on p processors. It must reset all internal state, so
	// a Sizer can be reused across the phases of an outer sequential
	// loop.
	Init(n, p int)
	// NextSize returns how many iterations the calling processor takes,
	// given that r > 0 iterations remain unassigned. The result must lie
	// in [1, r].
	NextSize(r int) int
}

// CeilDiv returns ⌈a/b⌉ for a ≥ 0, b > 0.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}

// Dispenser hands out chunks of [0, n) front-to-back using a Sizer.
// It is NOT safe for concurrent use; engines wrap it in their own
// synchronisation (that synchronisation cost is precisely what the
// paper's experiments measure).
type Dispenser struct {
	sizer Sizer
	next  int // first unassigned iteration
	n     int
}

// NewDispenser creates a dispenser over [0, n) for p processors.
func NewDispenser(s Sizer, n, p int) *Dispenser {
	d := &Dispenser{}
	d.Reset(s, n, p)
	return d
}

// Reset re-arms the dispenser over [0, n) for p processors, initialising
// s for the new loop, so one Dispenser can serve every phase.
func (d *Dispenser) Reset(s Sizer, n, p int) {
	s.Init(n, p)
	*d = Dispenser{sizer: s, n: n}
}

// Next returns the next chunk, or ok=false when the loop is exhausted.
func (d *Dispenser) Next() (c Chunk, ok bool) {
	r := d.n - d.next
	if r <= 0 {
		return Chunk{}, false
	}
	sz := d.sizer.NextSize(r)
	if sz < 1 {
		sz = 1
	}
	if sz > r {
		sz = r
	}
	c = Chunk{d.next, d.next + sz}
	d.next += sz
	return c, true
}

// Remaining returns the number of unassigned iterations.
func (d *Dispenser) Remaining() int { return d.n - d.next }

// Chunks materialises the full chunk sequence a Sizer produces for a loop
// of n iterations on p processors, assuming chunks are taken one after
// another (the single-consumer schedule). Used by tests and by the
// analytic tooling.
func Chunks(s Sizer, n, p int) []Chunk {
	d := NewDispenser(s, n, p)
	var out []Chunk
	for {
		c, ok := d.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

// Validate checks that a chunk sequence covers [0, n) exactly once, in
// order, with no gaps or overlaps. It returns a descriptive error on the
// first violation.
func Validate(chunks []Chunk, n int) error {
	at := 0
	for i, c := range chunks {
		if c.Empty() {
			return fmt.Errorf("chunk %d %v is empty", i, c)
		}
		if c.Lo != at {
			return fmt.Errorf("chunk %d %v: expected to start at %d", i, c, at)
		}
		at = c.Hi
	}
	if at != n {
		return fmt.Errorf("chunks cover [0,%d), want [0,%d)", at, n)
	}
	return nil
}
