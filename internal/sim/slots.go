package sim

// slotTable interns footprint IDs into the dense slot numbers 0, 1, 2,
// … in first-seen order. It is open-addressed: a power-of-two array of
// cells, a multiplicative (Fibonacci) hash taking the product's top
// bits, linear probing, and a doubling whenever the table would pass
// half full, so a probe sequence stays short. A cell stores slot+1, so
// zero marks it empty and every uint64 ID, 0 included, is a key.
type slotTable struct {
	cells []slotCell
	shift uint // 64 - log2(len(cells))
	n     int32
}

type slotCell struct {
	id   uint64
	slot int32 // slot+1; 0 = empty
}

// slotTableMinBits sizes a new table at 64 cells, enough for 32
// footprints before the first grow.
const slotTableMinBits = 6

// intern returns id's slot, assigning the next one when id is new.
func (t *slotTable) intern(id uint64) (slot int32, fresh bool) {
	if t.cells == nil {
		t.resize(slotTableMinBits)
	}
	mask := len(t.cells) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.slot == 0 {
			slot = t.n
			t.n++
			c.id, c.slot = id, slot+1
			if 2*int(t.n) > len(t.cells) {
				t.resize(64 - t.shift + 1)
			}
			return slot, true
		}
		if c.id == id {
			return c.slot - 1, false
		}
	}
}

// reset forgets every ID, keeping the cells for the next run.
func (t *slotTable) reset() {
	clear(t.cells)
	t.n = 0
}

func (t *slotTable) home(id uint64) int {
	return int((id * 0x9e3779b97f4a7c15) >> t.shift)
}

// resize rehashes every cell into a table of 2^bits cells.
func (t *slotTable) resize(bits uint) {
	old := t.cells
	t.cells = make([]slotCell, 1<<bits)
	t.shift = 64 - bits
	mask := len(t.cells) - 1
	for _, c := range old {
		if c.slot == 0 {
			continue
		}
		i := t.home(c.id)
		for t.cells[i].slot != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = c
	}
}
