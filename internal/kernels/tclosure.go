package kernels

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TClosure is the transitive-closure kernel (§4.2), Warshall's
// algorithm: phase k ORs row k into every row j with A[j][k] set. An
// iteration costs O(N) when its branch is taken and O(1) otherwise, so
// load imbalance is input-dependent: negligible for a random graph,
// severe for the clique input where all the work sits in the first
// rows. Iteration j always touches row j, so there is affinity to
// exploit.
type TClosure struct {
	// Input is read, never modified, at model-build time.
	Input *workload.Graph
	// InnerCycles is the per-element cost of the OR loop (default 8:
	// load, test, store and index arithmetic on a 1992 RISC).
	InnerCycles float64
	// BranchCycles is the cost of a not-taken iteration (default 10).
	BranchCycles float64
}

// branchTable records, for every phase k and row j, whether iteration
// j's branch is taken: bit j of row k, ⌈N/64⌉ words per row.
type branchTable struct {
	bits  []uint64
	words int
}

// row returns phase ph's bits.
func (b branchTable) row(ph int) []uint64 { return b.bits[ph*b.words : (ph+1)*b.words] }

// bitAt reports whether bit j of a bitset row is set.
func bitAt(row []uint64, j int) bool { return row[uint(j)/64]&(1<<(uint(j)%64)) != 0 }

// branches precomputes, for every phase k and row j, whether iteration
// j's branch A[j][k] is taken, by running the algorithm sequentially.
// The branch value is the phase-start value of A[j][k] (iteration j is
// the only writer of row j within a phase, and reads A[j][k] before
// writing), so the schedule cannot change it — which is what makes the
// precomputation valid for any simulated execution order.
//
// The working matrix is a bitset of ⌈N/64⌉ words per row, so the OR of
// row k into row j goes a word at a time; the branch table is a second
// bitset of the same shape.
func (k TClosure) branches() (branchTable, int) {
	n := k.Input.N
	words := (n + 63) / 64
	bits := make([]uint64, n*words)
	for j, row := range k.Input.Adj {
		rowJ := bits[j*words : (j+1)*words]
		for i, set := range row {
			if set {
				rowJ[i/64] |= 1 << (i % 64)
			}
		}
	}
	table := branchTable{bits: make([]uint64, n*words), words: words}
	for ph := 0; ph < n; ph++ {
		col := table.row(ph)
		word, mask := ph/64, uint64(1)<<(ph%64)
		rowK := bits[ph*words : (ph+1)*words]
		for j := 0; j < n; j++ {
			// Row j is unchanged this phase until iteration j, so this
			// reads A[j][ph]'s phase-start value.
			rowJ := bits[j*words : (j+1)*words]
			if rowJ[word]&mask != 0 {
				col[j/64] |= 1 << (j % 64)
				for i, w := range rowK {
					rowJ[i] |= w
				}
			}
		}
	}
	return table, n
}

// Program returns the simulator model on machine m. Row footprints are
// N bytes (one byte per boolean entry).
func (k TClosure) Program(m *machine.Machine) sim.Program {
	inner := k.InnerCycles
	if inner == 0 {
		inner = 8
	}
	branch := k.BranchCycles
	if branch == 0 {
		branch = 10
	}
	table, n := k.branches()
	rowBytes := n
	lineBytes := m.LineBytes
	return sim.Program{
		Name:  "TC",
		Steps: n,
		Step: func(ph int) sim.ParLoop {
			taken := table.row(ph)
			return sim.ParLoop{
				N: n,
				Cost: func(j int) float64 {
					if bitAt(taken, j) {
						return branch + inner*float64(n)
					}
					return branch
				},
				Touches: func(j int, visit func(sim.Touch)) {
					if bitAt(taken, j) {
						visit(sim.Touch{ID: fp(arrA, ph), Bytes: rowBytes})
						visit(sim.Touch{ID: fp(arrA, j), Bytes: rowBytes, Write: true})
					} else {
						// The branch test reads a single element of row
						// j — one cache line, not the whole row.
						visit(sim.Touch{ID: fp(arrA, j), Bytes: lineBytes})
					}
				},
			}
		},
	}
}

// TCGraph is the real form: Warshall's algorithm with a column snapshot
// per phase so that every schedule computes the canonical
// phase-synchronous result.
type TCGraph struct {
	G   *workload.Graph
	col []bool
}

// NewTCGraph wraps a (cloned) input graph.
func NewTCGraph(g *workload.Graph) *TCGraph {
	return &TCGraph{G: g.Clone(), col: make([]bool, g.N)}
}

// BeginPhase snapshots column ph; call before the parallel loop of
// phase ph.
func (t *TCGraph) BeginPhase(ph int) {
	for j := 0; j < t.G.N; j++ {
		t.col[j] = t.G.Adj[j][ph]
	}
}

// UpdateRow is the parallel-loop body for phase ph, iteration j.
// Iteration j == ph is skipped: ORing row ph into itself is a no-op,
// and skipping it keeps concurrent executions free of benign races on
// row ph (other iterations read it).
func (t *TCGraph) UpdateRow(ph, j int) {
	if j == ph || !t.col[j] {
		return
	}
	rowK := t.G.Adj[ph]
	rowJ := t.G.Adj[j]
	for i := range rowJ {
		if rowK[i] {
			rowJ[i] = true
		}
	}
}

// RunSerial computes the closure serially (the reference result).
func (t *TCGraph) RunSerial() {
	for ph := 0; ph < t.G.N; ph++ {
		t.BeginPhase(ph)
		for j := 0; j < t.G.N; j++ {
			t.UpdateRow(ph, j)
		}
	}
}
