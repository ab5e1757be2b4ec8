package sched

import (
	"testing"
	"testing/quick"
)

// assignmentCovers checks an Assignment schedules [0, n) exactly once.
func assignmentCovers(a Assignment, n int) bool {
	seen := make([]int, n)
	for _, chs := range a {
		for _, c := range chs {
			if c.Lo < 0 || c.Hi > n || c.Empty() {
				return false
			}
			for i := c.Lo; i < c.Hi; i++ {
				seen[i]++
			}
		}
	}
	for _, s := range seen {
		if s != 1 {
			return false
		}
	}
	return true
}

func TestStaticCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 100, 513} {
		for _, p := range []int{1, 2, 3, 8, 16, 100} {
			a := Static(n, p)
			if len(a) != p {
				t.Fatalf("Static(%d,%d): %d processor lists", n, p, len(a))
			}
			if !assignmentCovers(a, n) {
				t.Fatalf("Static(%d,%d) does not cover exactly", n, p)
			}
			if a.Iterations() != n {
				t.Fatalf("Static(%d,%d).Iterations = %d", n, p, a.Iterations())
			}
		}
	}
}

// TestStaticBalance: block sizes differ by at most one.
func TestStaticBalance(t *testing.T) {
	f := func(n16 uint16, p8 uint8) bool {
		n := int(n16)%2000 + 1
		p := int(p8)%32 + 1
		a := Static(n, p)
		min, max := n, 0
		for _, chs := range a {
			sz := 0
			for _, c := range chs {
				sz += c.Len()
			}
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		return max-min <= 1 && assignmentCovers(a, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStaticMatchesAFSPlacement: the static blocks are the AFS initial
// queue contents (both use ⌈iN/P⌉ boundaries), which is what makes
// STATIC and AFS share affinity behaviour on balanced loops.
func TestStaticMatchesAFSPlacement(t *testing.T) {
	n, p := 512, 8
	a := Static(n, p)
	for i, chs := range a {
		if len(chs) != 1 {
			t.Fatalf("proc %d has %d chunks", i, len(chs))
		}
		wantLo, wantHi := CeilDiv(i*n, p), CeilDiv((i+1)*n, p)
		if chs[0].Lo != wantLo || chs[0].Hi != wantHi {
			t.Errorf("proc %d: %v, want [%d,%d)", i, chs[0], wantLo, wantHi)
		}
	}
}

func TestBestStaticCoverage(t *testing.T) {
	costs := []func(i int) float64{
		func(int) float64 { return 1 },
		func(i int) float64 { return float64(1000 - i) },
		func(i int) float64 { return float64(i * i) },
		func(i int) float64 {
			if i < 100 {
				return 100
			}
			return 1
		},
		func(int) float64 { return 0 }, // degenerate: zero cost
	}
	for _, cost := range costs {
		for _, p := range []int{1, 2, 7, 8} {
			a := BestStatic(1000, p, cost)
			if !assignmentCovers(a, 1000) {
				t.Fatalf("BestStatic p=%d does not cover", p)
			}
		}
	}
}

// TestBestStaticBalancesSkew: on the clique-style workload (all work in
// the first 10%), BestStatic's most-loaded processor carries far less
// than Static's.
func TestBestStaticBalancesSkew(t *testing.T) {
	n, p := 1000, 8
	cost := func(i int) float64 {
		if i < 100 {
			return 100
		}
		return 1
	}
	static := Static(n, p).MaxCost(cost)
	best := BestStatic(n, p, cost).MaxCost(cost)
	if best >= static/2 {
		t.Errorf("BestStatic max load %.0f not much better than Static %.0f", best, static)
	}
	// And it must be within 2x of the perfect 1/P split.
	total := 0.0
	for i := 0; i < n; i++ {
		total += cost(i)
	}
	if best > 2*total/float64(p) {
		t.Errorf("BestStatic max load %.0f exceeds 2x fair share %.0f", best, total/float64(p))
	}
}

func TestBestStaticUniformEqualsStatic(t *testing.T) {
	n, p := 512, 8
	a := BestStatic(n, p, func(int) float64 { return 1 })
	b := Static(n, p)
	for i := range a {
		if len(a[i]) != 1 || len(b[i]) != 1 || a[i][0] != b[i][0] {
			t.Errorf("proc %d: best %v vs static %v", i, a[i], b[i])
		}
	}
}

func TestBestStaticNegativeCostClamped(t *testing.T) {
	a := BestStatic(100, 4, func(i int) float64 { return -5 })
	if !assignmentCovers(a, 100) {
		t.Error("negative costs broke coverage")
	}
}

func TestBestStaticInterleaved(t *testing.T) {
	a := BestStaticInterleaved(100, 4, 10)
	if !assignmentCovers(a, 100) {
		t.Fatal("interleaved does not cover")
	}
	// Stripe 0 → proc 0, stripe 1 → proc 1, ...
	if a[0][0] != (Chunk{0, 10}) || a[1][0] != (Chunk{10, 20}) {
		t.Errorf("stripe placement wrong: %v, %v", a[0][0], a[1][0])
	}
	// Each proc receives every p-th stripe.
	if a[0][1] != (Chunk{40, 50}) {
		t.Errorf("round-robin wrong: %v", a[0][1])
	}
	// Degenerate stripe width.
	if !assignmentCovers(BestStaticInterleaved(10, 3, 0), 10) {
		t.Error("stripe<1 broke coverage")
	}
}

func TestModFactoringCoverage(t *testing.T) {
	// One instance serves every loop, as engines reuse it across
	// phases; Init must reset it whatever p the last loop had.
	m := NewModFactoring()
	for _, n := range []int{1, 10, 100, 1000} {
		for _, p := range []int{1, 2, 8} {
			m.Init(n, p)
			seen := make([]int, n)
			proc := 0
			for !m.Done() {
				c, ok := m.Claim(proc % p)
				if !ok {
					break
				}
				for i := c.Lo; i < c.Hi; i++ {
					seen[i]++
				}
				proc++
			}
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("n=%d p=%d: iteration %d claimed %d times", n, p, i, s)
				}
			}
		}
	}
}

// TestModFactoringAffinityPreference: within a phase, processor i gets
// the i-th chunk when it claims before anyone takes it.
func TestModFactoringAffinityPreference(t *testing.T) {
	m := NewModFactoring()
	m.Init(160, 4) // phase chunk = ceil(160/8) = 20
	c2, ok := m.Claim(2)
	if !ok || c2 != (Chunk{40, 60}) {
		t.Errorf("proc 2 claim = %v, want [40,60)", c2)
	}
	c0, _ := m.Claim(0)
	if c0 != (Chunk{0, 20}) {
		t.Errorf("proc 0 claim = %v, want [0,20)", c0)
	}
	// Proc 2 again: its chunk is gone, gets first available (proc 1's).
	c2b, _ := m.Claim(2)
	if c2b != (Chunk{20, 40}) {
		t.Errorf("proc 2 second claim = %v, want [20,40)", c2b)
	}
}

// TestModFactoringMatchesFactoringSizes: phase chunk sizes equal plain
// factoring's.
func TestModFactoringMatchesFactoringSizes(t *testing.T) {
	n, p := 1000, 4
	fchunks := Chunks(&Factoring{}, n, p)
	m := NewModFactoring()
	m.Init(n, p)
	var mchunks []Chunk
	for {
		c, ok := m.Claim(0) // claim order: 0 prefers chunk 0 then first available
		if !ok {
			break
		}
		mchunks = append(mchunks, c)
	}
	if len(fchunks) != len(mchunks) {
		t.Fatalf("op counts differ: factoring %d, mod-factoring %d", len(fchunks), len(mchunks))
	}
	for i := range fchunks {
		if fchunks[i].Len() != mchunks[i].Len() {
			t.Errorf("chunk %d: factoring %d, mod-factoring %d",
				i, fchunks[i].Len(), mchunks[i].Len())
		}
	}
}

func TestModFactoringOutOfRangeProc(t *testing.T) {
	m := NewModFactoring()
	m.Init(100, 4)
	c, ok := m.Claim(99) // invalid proc: falls back to first available
	if !ok || c.Empty() {
		t.Errorf("out-of-range proc claim = %v, %v", c, ok)
	}
}
