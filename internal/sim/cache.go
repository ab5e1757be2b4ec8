package sim

// Cache models one processor's cache (or coherent local memory) at
// footprint granularity: a footprint is a named block of data an
// iteration touches, e.g. "row i of matrix A". This matches the
// granularity at which the paper reasons about affinity and keeps large
// problems simulable (see DESIGN.md §2). Replacement is LRU by bytes.
//
// Footprints are addressed by dense slot numbers (the engine interns
// each footprint ID once per run), so residency and the LRU list live
// in a slice indexed by slot: a touch costs no map lookup, and a slot
// reused after eviction or invalidation reuses its storage.
type Cache struct {
	capacity int
	used     int
	n        int
	entries  []entry
	// Doubly-linked LRU list threaded through entries; head is the most
	// recently used slot, -1 ends the list.
	head, tail int32
}

// entry is one slot's residency record.
type entry struct {
	bytes      int
	prev, next int32
	resident   bool
}

// NewCache creates a cache with the given byte capacity. Capacity 0
// models a machine that never caches shared data locally.
func NewCache(capacity int) *Cache {
	return &Cache{capacity: capacity, head: -1, tail: -1}
}

// Contains reports whether footprint slot s is resident.
func (c *Cache) Contains(s int32) bool {
	return int(s) < len(c.entries) && c.entries[s].resident
}

// Used returns resident bytes.
func (c *Cache) Used() int { return c.used }

// Len returns the number of resident footprints.
func (c *Cache) Len() int { return c.n }

// Touch records a reference to footprint slot s of the given size. If
// the footprint is resident it becomes most-recently-used and Touch
// returns true (a hit). Otherwise the footprint is loaded, evicting LRU
// entries as needed (onEvict is called for each, if non-nil), and
// Touch returns false. Footprints larger than the whole cache are never
// retained.
func (c *Cache) Touch(s int32, bytes int, onEvict func(s int32)) bool {
	if c.Contains(s) {
		if e := &c.entries[s]; bytes > e.bytes {
			if bytes > c.capacity {
				// Grown past the whole cache: like any footprint that
				// large it cannot stay, so this reference misses.
				c.remove(s)
				if onEvict != nil {
					onEvict(s)
				}
				return false
			}
			// Footprint grew (e.g. a row touched more widely); account
			// for the extra bytes.
			c.used += bytes - e.bytes
			e.bytes = bytes
			c.evictOver(s, onEvict)
		}
		c.moveToFront(s)
		return true
	}
	if bytes > c.capacity {
		return false
	}
	if n := len(c.entries); int(s) >= n {
		c.entries = grown(c.entries, int(s)+1)
		clear(c.entries[n:])
	}
	c.entries[s].bytes, c.entries[s].resident = bytes, true
	c.n++
	c.pushFront(s)
	c.used += bytes
	c.evictOver(s, onEvict)
	return false
}

// evictOver evicts LRU entries (never `keep`) until used <= capacity.
func (c *Cache) evictOver(keep int32, onEvict func(s int32)) {
	for c.used > c.capacity && c.tail >= 0 {
		victim := c.tail
		if victim == keep {
			// keep is the only entry left; nothing else to evict.
			if c.entries[victim].prev < 0 {
				return
			}
			victim = c.entries[victim].prev
		}
		c.remove(victim)
		if onEvict != nil {
			onEvict(victim)
		}
	}
}

// Invalidate removes footprint slot s (coherence invalidation on a
// remote write). It is a no-op if the footprint is not resident.
func (c *Cache) Invalidate(s int32) {
	if c.Contains(s) {
		c.remove(s)
	}
}

// Clear drops everything (used when a program wants cold caches),
// keeping the slot storage.
func (c *Cache) Clear() {
	c.entries = c.entries[:0]
	c.head, c.tail, c.used, c.n = -1, -1, 0, 0
}

// reset empties the cache and sets its capacity for a new run.
func (c *Cache) reset(capacity int) {
	c.Clear()
	c.capacity = capacity
}

func (c *Cache) pushFront(s int32) {
	c.entries[s].prev = -1
	c.entries[s].next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

// unlink detaches s from the LRU list.
func (c *Cache) unlink(s int32) {
	e := &c.entries[s]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) remove(s int32) {
	c.unlink(s)
	c.entries[s].resident = false
	c.used -= c.entries[s].bytes
	c.n--
}

func (c *Cache) moveToFront(s int32) {
	if c.head != s {
		c.unlink(s)
		c.pushFront(s)
	}
}

// directory tracks which processors hold a copy of each footprint, for
// write-invalidate coherence, indexed by footprint slot. Processor sets
// are bitmasks, so the simulator supports up to 64 processors — enough
// for the paper's largest machine (the 64-processor KSR-1).
type directory struct {
	holders []uint64
}

func (d *directory) addHolder(s int32, p int)    { d.holders[s] |= 1 << uint(p) }
func (d *directory) dropHolder(s int32, p int)   { d.holders[s] &^= 1 << uint(p) }
func (d *directory) holdersOf(s int32) uint64    { return d.holders[s] }
func (d *directory) setExclusive(s int32, p int) { d.holders[s] = 1 << uint(p) }
