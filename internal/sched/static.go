package sched

import "sort"

// An Assignment maps each processor to the chunks it executes. Static
// policies produce the whole assignment up front; no runtime
// synchronisation is needed to consume it.
type Assignment [][]Chunk

// Iterations returns the total number of iterations assigned.
func (a Assignment) Iterations() int {
	total := 0
	for _, chs := range a {
		for _, c := range chs {
			total += c.Len()
		}
	}
	return total
}

// Static is the simple static schedule from §1 of the paper: contiguous
// blocks of ⌈N/P⌉ iterations, processor i receiving iterations
// ⌈iN/P⌉ … ⌈(i+1)N/P⌉. This matches the deterministic initial placement
// AFS uses, so STATIC and AFS exhibit identical affinity when the load
// is balanced.
func Static(n, p int) Assignment {
	a := make(Assignment, p)
	for i := 0; i < p; i++ {
		if c := StaticBlock(i, n, p); !c.Empty() {
			a[i] = []Chunk{c}
		}
	}
	return a
}

// StaticBlock returns processor i's block of Static(n, p), empty when
// there are more processors than iterations. Engines that rebuild the
// placement every phase use it to fill their own storage.
func StaticBlock(i, n, p int) Chunk {
	lo := CeilDiv(i*n, p)
	hi := CeilDiv((i+1)*n, p)
	if hi > n {
		hi = n
	}
	return Chunk{lo, hi}
}

// BestStatic is the paper's hand-optimised baseline (§4.1): a static
// assignment constructed with complete knowledge of the per-iteration
// costs, maximising locality while minimising imbalance. We automate the
// hand construction: iterations are kept contiguous (for affinity) and
// block boundaries are chosen so each processor receives as close to
// 1/P of the *total work* as a contiguous prefix allows.
//
// cost(i) must return a non-negative estimate of iteration i's work.
func BestStatic(n, p int, cost func(i int) float64) Assignment {
	if p < 1 {
		p = 1
	}
	a := make(Assignment, p)
	for i, c := range BestStaticBlocks(make([]Chunk, p), make([]float64, n+1), cost) {
		if !c.Empty() {
			a[i] = []Chunk{c}
		}
	}
	return a
}

// BestStaticBlocks computes BestStatic's assignment of n = len(prefix)-1
// iterations to p = len(blocks) processors in place: blocks[i] becomes
// processor i's block, empty when the iterations run out first. prefix
// is scratch for the cost prefix sums. It allocates nothing, so an
// engine can recompute the assignment every phase in storage it keeps.
func BestStaticBlocks(blocks []Chunk, prefix []float64, cost func(i int) float64) []Chunk {
	n, p := len(prefix)-1, len(blocks)
	prefix[0] = 0
	for i := 0; i < n; i++ {
		c := cost(i)
		if c < 0 {
			c = 0
		}
		prefix[i+1] = prefix[i] + c
	}
	total := prefix[n]
	clear(blocks)
	lo := 0
	for i := 0; i < p && lo < n; i++ {
		target := total * float64(i+1) / float64(p)
		// First index hi with prefix[hi] >= target.
		hi := lo + sort.Search(n-lo, func(j int) bool {
			return prefix[lo+j+1] >= target
		}) + 1
		if i == p-1 || hi > n {
			hi = n
		}
		if hi <= lo {
			hi = lo + 1
		}
		blocks[i] = Chunk{lo, hi}
		lo = hi
	}
	return blocks
}

// BestStaticInterleaved is the variant of BEST-STATIC the paper uses for
// the skewed transitive-closure input (§4.3): when expensive iterations
// are clustered, it deals iterations to processors round-robin in
// stripes of the given width, distributing the cluster evenly while each
// processor still re-executes the same iterations every phase (so
// affinity is preserved across phases).
func BestStaticInterleaved(n, p, stripe int) Assignment {
	if stripe < 1 {
		stripe = 1
	}
	a := make(Assignment, p)
	for lo, turn := 0, 0; lo < n; lo, turn = lo+stripe, turn+1 {
		hi := lo + stripe
		if hi > n {
			hi = n
		}
		proc := turn % p
		a[proc] = append(a[proc], Chunk{lo, hi})
	}
	return a
}

// MaxCost returns the most-loaded processor's total work under an
// assignment, according to cost. Used to compare static baselines.
func (a Assignment) MaxCost(cost func(i int) float64) float64 {
	worst := 0.0
	for _, chs := range a {
		s := 0.0
		for _, c := range chs {
			for i := c.Lo; i < c.Hi; i++ {
				s += cost(i)
			}
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}
