package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestSlotTableMatchesMap interns random ID streams into the probed
// table and into a map-based reference that hands out slots in
// first-seen order: every ID must get the same slot and the same
// fresh/seen answer from both. The streams mix the edge keys (0 and
// math.MaxUint64), footprint-shaped IDs (array<<56|row), IDs equal
// modulo every table size, and IDs sharing a home cell, and they are
// long enough to force several grows.
func TestSlotTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Keys with one home cell in the initial table, so their probe
	// sequences run into each other.
	var probe slotTable
	probe.resize(slotTableMinBits)
	var sameHome []uint64
	for len(sameHome) < 12 {
		if id := rng.Uint64(); probe.home(id) == 0 {
			sameHome = append(sameHome, id)
		}
	}
	for trial := 0; trial < 50; trial++ {
		var got slotTable
		ref := map[uint64]int32{}
		var ids []uint64
		for len(ids) < 3000 {
			switch rng.Intn(6) {
			case 0:
				ids = append(ids, 0, math.MaxUint64)
			case 1:
				ids = append(ids, uint64(rng.Intn(4))<<56|uint64(rng.Intn(400)))
			case 2:
				ids = append(ids, uint64(rng.Intn(600))<<16)
			case 3:
				ids = append(ids, sameHome[rng.Intn(len(sameHome))])
			case 4:
				ids = append(ids, uint64(rng.Intn(64)))
			default:
				ids = append(ids, rng.Uint64())
			}
		}
		for k, id := range ids {
			want, seen := ref[id]
			if !seen {
				want = int32(len(ref))
				ref[id] = want
			}
			s, fresh := got.intern(id)
			if s != want || fresh == seen {
				t.Fatalf("trial %d id #%d %#x: slot %d fresh %v, reference slot %d fresh %v",
					trial, k, id, s, fresh, want, !seen)
			}
			if 2*int(got.n) > len(got.cells) {
				t.Fatalf("trial %d: %d slots in %d cells, over half full", trial, got.n, len(got.cells))
			}
		}
		if len(got.cells) < 8<<slotTableMinBits {
			t.Fatalf("trial %d: table grew only to %d cells", trial, len(got.cells))
		}
		for id, want := range ref {
			if s, fresh := got.intern(id); s != want || fresh {
				t.Fatalf("trial %d: re-interning %#x gave slot %d fresh %v, want %d", trial, id, s, fresh, want)
			}
		}
	}
}

// TestSlotTableReset: a reset table, as a pooled engine's is between
// runs, forgets every ID, keeps its cells and numbers slots from 0
// again.
func TestSlotTableReset(t *testing.T) {
	var tab slotTable
	for id := uint64(0); id < 100; id++ {
		tab.intern(id * 7919)
	}
	cells := len(tab.cells)
	tab.reset()
	for k, id := range []uint64{99 * 7919, 5, 0, 5} {
		want, wantFresh := int32(k), true
		if k == 3 {
			want, wantFresh = 1, false
		}
		if s, fresh := tab.intern(id); s != want || fresh != wantFresh {
			t.Fatalf("after reset, intern(%d) = slot %d fresh %v; want %d %v", id, s, fresh, want, wantFresh)
		}
	}
	if len(tab.cells) != cells {
		t.Errorf("reset resized the table from %d to %d cells", cells, len(tab.cells))
	}
}
