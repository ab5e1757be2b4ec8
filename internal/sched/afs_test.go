package sched

import (
	"testing"
	"testing/quick"
)

func TestQueuePushCoalesce(t *testing.T) {
	var q Queue
	q.Push(Chunk{0, 5})
	q.Push(Chunk{5, 10}) // adjacent: coalesces
	if q.NumChunks() != 1 || q.Len() != 10 {
		t.Errorf("coalesce failed: %d chunks, len %d", q.NumChunks(), q.Len())
	}
	q.Push(Chunk{20, 25}) // gap: new chunk
	if q.NumChunks() != 2 || q.Len() != 15 {
		t.Errorf("gap push failed: %d chunks, len %d", q.NumChunks(), q.Len())
	}
	q.Push(Chunk{30, 30}) // empty: ignored
	if q.NumChunks() != 2 {
		t.Error("empty chunk was pushed")
	}
}

func TestQueueTakeFront(t *testing.T) {
	var q Queue
	q.Push(Chunk{0, 10})
	c, ok := q.TakeFront(4)
	if !ok || c != (Chunk{0, 4}) {
		t.Fatalf("TakeFront(4) = %v, %v", c, ok)
	}
	if q.Len() != 6 {
		t.Fatalf("Len after take = %d", q.Len())
	}
	// Take clipped to head chunk when queue is fragmented.
	q.Push(Chunk{20, 30})
	c, _ = q.TakeFront(100)
	if c != (Chunk{4, 10}) {
		t.Fatalf("fragmented TakeFront = %v, want [4,10)", c)
	}
	c, _ = q.TakeFront(100)
	if c != (Chunk{20, 30}) {
		t.Fatalf("second TakeFront = %v, want [20,30)", c)
	}
	if _, ok := q.TakeFront(1); ok {
		t.Error("TakeFront succeeded on empty queue")
	}
}

func TestQueueTakeBack(t *testing.T) {
	var q Queue
	q.Push(Chunk{0, 10})
	q.Push(Chunk{20, 30})
	c, ok := q.TakeBack(4)
	if !ok || c != (Chunk{26, 30}) {
		t.Fatalf("TakeBack(4) = %v, %v", c, ok)
	}
	c, _ = q.TakeBack(100) // clipped to tail chunk
	if c != (Chunk{20, 26}) {
		t.Fatalf("TakeBack clip = %v, want [20,26)", c)
	}
	c, _ = q.TakeBack(100)
	if c != (Chunk{0, 10}) {
		t.Fatalf("TakeBack final = %v, want [0,10)", c)
	}
	if _, ok := q.TakeBack(1); ok {
		t.Error("TakeBack succeeded on empty queue")
	}
	if _, ok := q.TakeBack(0); ok {
		t.Error("TakeBack(0) succeeded")
	}
}

// TestQueueNeverLoses drains a queue with random front/back takes and
// verifies every pushed iteration comes out exactly once. One queue
// serves every case, Reset in between, so whatever state a case leaves
// behind must not leak into the next.
func TestQueueNeverLoses(t *testing.T) {
	var q Queue
	f := func(takes []uint8) bool {
		q.Reset()
		q.Push(Chunk{0, 100})
		q.Push(Chunk{150, 400})
		seen := make([]int, 450)
		for _, tk := range takes {
			amt := int(tk)%17 + 1
			var c Chunk
			var ok bool
			if tk%2 == 0 {
				c, ok = q.TakeFront(amt)
			} else {
				c, ok = q.TakeBack(amt)
			}
			if !ok {
				break
			}
			for i := c.Lo; i < c.Hi; i++ {
				seen[i]++
			}
		}
		// Drain what's left.
		for {
			c, ok := q.TakeFront(1 << 20)
			if !ok {
				break
			}
			for i := c.Lo; i < c.Hi; i++ {
				seen[i]++
			}
		}
		for i := 0; i < 100; i++ {
			if seen[i] != 1 {
				return false
			}
		}
		for i := 150; i < 400; i++ {
			if seen[i] != 1 {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQueueResetReusesStorage: a queue refilled every phase keeps its
// array, front takes included, and coalescing still sees only the
// queued chunks.
func TestQueueResetReusesStorage(t *testing.T) {
	var q Queue
	phase := func() {
		q.Reset()
		q.Push(Chunk{0, 10})
		q.Push(Chunk{20, 30})
		q.Push(Chunk{40, 50})
		q.TakeFront(10) // drops [0,10) from the front
		q.Push(Chunk{50, 60})
		if q.NumChunks() != 2 || q.Len() != 30 {
			t.Fatalf("after a front take and a coalescing push: %d chunks, len %d; want 2, 30", q.NumChunks(), q.Len())
		}
		for q.Len() > 0 {
			q.TakeBack(7)
		}
	}
	phase()
	if allocs := testing.AllocsPerRun(10, phase); allocs != 0 {
		t.Errorf("refilling a Reset queue allocates %v times per phase, want 0", allocs)
	}
}

func TestAFSAmounts(t *testing.T) {
	a := AFS{} // k = P
	if got := a.LocalAmount(64, 8); got != 8 {
		t.Errorf("LocalAmount(64, 8) = %d, want 8", got)
	}
	if got := a.LocalAmount(0, 8); got != 0 {
		t.Errorf("LocalAmount(0, 8) = %d, want 0", got)
	}
	if got := a.LocalAmount(1, 8); got != 1 {
		t.Errorf("LocalAmount(1, 8) = %d, want 1", got)
	}
	a2 := AFS{K: 2}
	if got := a2.LocalAmount(64, 8); got != 32 {
		t.Errorf("k=2 LocalAmount(64) = %d, want 32", got)
	}
	if got := a.StealAmount(64, 8); got != 8 {
		t.Errorf("StealAmount(64, 8) = %d, want 8", got)
	}
	if got := a.StealAmount(3, 8); got != 1 {
		t.Errorf("StealAmount(3, 8) = %d, want 1", got)
	}
	if got := a.StealAmount(0, 8); got != 0 {
		t.Errorf("StealAmount(0, 8) = %d, want 0", got)
	}
}

func TestAFSNames(t *testing.T) {
	if got := (AFS{}).Name(); got != "AFS" {
		t.Errorf("default name %q", got)
	}
	if got := (AFS{K: 2}).Name(); got != "AFS(k=2)" {
		t.Errorf("k=2 name %q", got)
	}
	if got := (AFS{K: 12}).Name(); got != "AFS(k=12)" {
		t.Errorf("k=12 name %q", got)
	}
}

func TestMostLoaded(t *testing.T) {
	if got := MostLoaded([]int{0, 0, 0}); got != -1 {
		t.Errorf("all-empty = %d, want -1", got)
	}
	if got := MostLoaded([]int{3, 9, 9, 1}); got != 1 {
		t.Errorf("tie should break low: got %d, want 1", got)
	}
	if got := MostLoaded(nil); got != -1 {
		t.Errorf("nil = %d, want -1", got)
	}
}

// TestAFSLocalDrainOps bounds the number of local takes needed to drain
// a queue, the k·log(N/(Pk)) term of Theorem 3.1 (plus slack for
// rounding).
func TestAFSLocalDrainOps(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{512, 8}, {10000, 16}, {640, 8}} {
		a := AFS{} // k = P
		var q Queue
		q.Push(Chunk{0, tc.n / tc.p})
		ops := 0
		for q.Len() > 0 {
			amt := a.LocalAmount(q.Len(), tc.p)
			if _, ok := q.TakeFront(amt); !ok {
				t.Fatal("takefront failed on non-empty queue")
			}
			ops++
		}
		// Lemma 3.1: O(k log(N0/k)) with k = P and N0 = N/P.
		n0 := float64(tc.n) / float64(tc.p)
		bound := float64(tc.p)*(ln2(n0/float64(tc.p))+1) + float64(tc.p)
		if float64(ops) > bound {
			t.Errorf("n=%d p=%d: %d local ops exceeds bound %.0f", tc.n, tc.p, ops, bound)
		}
	}
}

func ln2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	// log2 via repeated halving is enough for a test bound.
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		v    int
		want string
	}{{0, "0"}, {5, "5"}, {42, "42"}, {1234567, "1234567"}} {
		if got := itoa(tc.v); got != tc.want {
			t.Errorf("itoa(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
