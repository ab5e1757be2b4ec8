package sim

import (
	"testing"
	"testing/quick"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1000)
	if c.Touch(1, 400, nil) {
		t.Error("first touch reported hit")
	}
	if !c.Touch(1, 400, nil) {
		t.Error("second touch reported miss")
	}
	if c.Used() != 400 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1000)
	var evicted []int32
	onEvict := func(s int32) { evicted = append(evicted, s) }
	c.Touch(1, 400, onEvict)
	c.Touch(2, 400, onEvict)
	c.Touch(1, 400, onEvict) // 1 becomes MRU
	c.Touch(3, 400, onEvict) // must evict 2 (LRU), not 1
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Errorf("residency wrong: 1=%v 2=%v 3=%v", c.Contains(1), c.Contains(2), c.Contains(3))
	}
}

func TestCacheOversizedFootprint(t *testing.T) {
	c := NewCache(100)
	if c.Touch(1, 500, nil) {
		t.Error("oversized footprint hit")
	}
	if c.Contains(1) || c.Used() != 0 {
		t.Error("oversized footprint was retained")
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 3; i++ {
		if c.Touch(7, 64, nil) {
			t.Error("zero-capacity cache produced a hit")
		}
	}
}

func TestCacheGrowingFootprint(t *testing.T) {
	c := NewCache(1000)
	c.Touch(1, 100, nil)
	if !c.Touch(1, 600, nil) {
		t.Error("growth should still be a hit")
	}
	if c.Used() != 600 {
		t.Errorf("used=%d, want 600", c.Used())
	}
	// Shrink is ignored (entry keeps max size).
	c.Touch(1, 50, nil)
	if c.Used() != 600 {
		t.Errorf("used after shrink touch = %d, want 600", c.Used())
	}
}

// TestCacheGrowthPastCapacity: a resident footprint that grows larger
// than the whole cache is dropped, like any footprint that large, and
// its eviction is reported so the directory forgets the holder.
func TestCacheGrowthPastCapacity(t *testing.T) {
	c := NewCache(100)
	var evicted []int32
	onEvict := func(s int32) { evicted = append(evicted, s) }
	c.Touch(0, 50, onEvict)
	c.Touch(1, 40, onEvict)
	if c.Touch(0, 150, onEvict) {
		t.Error("footprint grown past capacity reported a hit")
	}
	if c.Contains(0) {
		t.Error("footprint grown past capacity stayed resident")
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Errorf("evicted %v, want [0]", evicted)
	}
	if !c.Contains(1) || c.Used() != 40 || c.Len() != 1 {
		t.Errorf("contains(1)=%v used=%d len=%d, want true 40 1", c.Contains(1), c.Used(), c.Len())
	}
}

func TestCacheGrowthEvictsOthers(t *testing.T) {
	c := NewCache(1000)
	c.Touch(1, 400, nil)
	c.Touch(2, 400, nil)
	c.Touch(2, 900, nil) // growth forces 1 out
	if c.Contains(1) {
		t.Error("growth did not evict LRU entry")
	}
	if !c.Contains(2) {
		t.Error("grown entry was evicted itself")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1000)
	c.Touch(1, 300, nil)
	c.Invalidate(1)
	if c.Contains(1) || c.Used() != 0 {
		t.Error("invalidate failed")
	}
	c.Invalidate(42) // absent: no-op
	c.Touch(2, 100, nil)
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 || c.Contains(2) {
		t.Error("clear failed")
	}
	if c.Touch(2, 100, nil) || !c.Touch(2, 100, nil) || c.Len() != 1 {
		t.Error("cache unusable after clear")
	}
}

// TestCacheCapacityInvariant: under random operations, used bytes never
// exceed capacity and residency matches a model map.
func TestCacheCapacityInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		const cap = 2048
		c := NewCache(cap)
		for _, op := range ops {
			id := int32(op % 37)
			size := int(op%7)*100 + 50
			switch op % 3 {
			case 0, 1:
				c.Touch(id, size, nil)
			case 2:
				c.Invalidate(id)
			}
			if c.Used() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCacheListMapConsistency: every resident slot is reachable by
// walking the LRU list (in both directions) and vice versa.
func TestCacheListMapConsistency(t *testing.T) {
	c := NewCache(10000)
	for i := 0; i < 50; i++ {
		c.Touch(int32(i%13), (i%5)*100+100, nil)
		if i%7 == 0 {
			c.Invalidate(int32(i % 13))
		}
		n, bytes := 0, 0
		prev := int32(-1)
		for s := c.head; s >= 0; s = c.entries[s].next {
			n++
			bytes += c.entries[s].bytes
			if !c.entries[s].resident || c.entries[s].prev != prev {
				t.Fatalf("list node %d: resident=%v prev=%d, want prev %d", s, c.entries[s].resident, c.entries[s].prev, prev)
			}
			prev = s
		}
		if prev != c.tail {
			t.Fatalf("list ends at %d, tail is %d", prev, c.tail)
		}
		resident := 0
		for _, l := range c.entries {
			if l.resident {
				resident++
			}
		}
		if n != c.Len() || n != resident || bytes != c.Used() {
			t.Fatalf("list/slot mismatch: list n=%d bytes=%d, resident slots=%d len=%d used=%d",
				n, bytes, resident, c.Len(), c.Used())
		}
	}
}

func TestDirectory(t *testing.T) {
	d := directory{holders: make([]uint64, 100)}
	d.addHolder(1, 0)
	d.addHolder(1, 5)
	if d.holdersOf(1) != (1 | 1<<5) {
		t.Errorf("holders = %b", d.holdersOf(1))
	}
	d.dropHolder(1, 0)
	if d.holdersOf(1) != 1<<5 {
		t.Errorf("after drop: %b", d.holdersOf(1))
	}
	d.setExclusive(1, 3)
	if d.holdersOf(1) != 1<<3 {
		t.Errorf("after exclusive: %b", d.holdersOf(1))
	}
	if d.holdersOf(99) != 0 {
		t.Error("unknown footprint has holders")
	}
}

func TestResourceFIFO(t *testing.T) {
	var r Resource
	s1, e1 := r.Acquire(10, 5)
	if s1 != 10 || e1 != 15 {
		t.Errorf("first acquire [%v,%v]", s1, e1)
	}
	s2, e2 := r.Acquire(11, 5) // arrives while busy: waits
	if s2 != 15 || e2 != 20 {
		t.Errorf("queued acquire [%v,%v]", s2, e2)
	}
	s3, _ := r.Acquire(100, 5) // idle resource: starts immediately
	if s3 != 100 {
		t.Errorf("idle acquire start %v", s3)
	}
	if r.Ops() != 3 || r.Busy() != 15 || r.Waited() != 4 {
		t.Errorf("stats ops=%d busy=%v waited=%v", r.Ops(), r.Busy(), r.Waited())
	}
	r.Reset()
	if r.Ops() != 0 || r.Busy() != 0 {
		t.Error("reset failed")
	}
}

func TestResourceWaiters(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	r.Acquire(0, 10)
	r.Acquire(0, 10)
	if w := r.Waiters(0, 10); w != 3 {
		t.Errorf("waiters = %d, want 3", w)
	}
	if w := r.Waiters(100, 10); w != 0 {
		t.Errorf("idle waiters = %d", w)
	}
	if w := r.Waiters(0, 0); w != 0 {
		t.Errorf("zero service waiters = %d", w)
	}
}
