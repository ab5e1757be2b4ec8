package kernels

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// SOR is the successive over-relaxation kernel (§4.2): a parallel loop
// over matrix rows nested in a sequential loop over relaxation phases.
// Every iteration of the parallel loop costs the same, and iteration j
// always touches row j (plus its neighbours), so SOR has no load
// imbalance and maximal affinity — the paper's best case for AFS.
type SOR struct {
	// N is the matrix dimension (N×N float64).
	N int
	// Phases is the number of outer relaxation sweeps.
	Phases int
}

// Program returns the simulator model of SOR on machine m. Each row
// update performs N element updates of a few additions/multiplications
// and one floating-point division (the division is what makes Fig 17's
// KSR-1 anomaly: software division inflates compute so affinity matters
// relatively less). Iteration j writes row j and reads rows j-1, j+1.
// Every phase is the same loop, so it is built once and every Step
// returns it.
func (k SOR) Program(m *machine.Machine) sim.Program {
	rowBytes := k.N * 8
	perElem := 5*m.FPOpCycles + m.FPDivCycles
	cost := float64(k.N) * perElem
	n := k.N
	loop := sim.ParLoop{
		N:    n,
		Cost: func(int) float64 { return cost },
		Touches: func(i int, visit func(sim.Touch)) {
			if i > 0 {
				visit(sim.Touch{ID: fp(arrA, i-1), Bytes: rowBytes})
			}
			if i < n-1 {
				visit(sim.Touch{ID: fp(arrA, i+1), Bytes: rowBytes})
			}
			visit(sim.Touch{ID: fp(arrA, i), Bytes: rowBytes, Write: true})
		},
	}
	return sim.Program{
		Name:  "SOR",
		Steps: k.Phases,
		Step:  func(int) sim.ParLoop { return loop },
	}
}

// SORGrid is the real form's data: two N×N grids for a Jacobi-style
// sweep (reading src, writing dst) so the result is independent of the
// order in which a scheduler executes iterations.
type SORGrid struct {
	N        int
	src, dst [][]float64
}

// NewSORGrid builds an N×N grid with a deterministic initial condition:
// boundary value 1, interior 0.
func NewSORGrid(n int) *SORGrid {
	g := &SORGrid{N: n, src: makeGrid(n), dst: makeGrid(n)}
	for i := 0; i < n; i++ {
		g.src[i][0], g.src[i][n-1] = 1, 1
		g.src[0][i], g.src[n-1][i] = 1, 1
		g.dst[i][0], g.dst[i][n-1] = 1, 1
		g.dst[0][i], g.dst[n-1][i] = 1, 1
	}
	return g
}

func makeGrid(n int) [][]float64 {
	backing := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// UpdateRow computes one Jacobi relaxation of interior row j from src
// into dst — the body of the parallel loop. Boundary rows are copied.
func (g *SORGrid) UpdateRow(j int) {
	n := g.N
	if j == 0 || j == n-1 {
		copy(g.dst[j], g.src[j])
		return
	}
	up, row, down, out := g.src[j-1], g.src[j], g.src[j+1], g.dst[j]
	out[0], out[n-1] = row[0], row[n-1]
	for c := 1; c < n-1; c++ {
		out[c] = (up[c] + down[c] + row[c-1] + row[c+1]) / 4
	}
}

// Swap exchanges source and destination grids — the end of one phase.
func (g *SORGrid) Swap() { g.src, g.dst = g.dst, g.src }

// Value returns the current solution value at (i, j).
func (g *SORGrid) Value(i, j int) float64 { return g.src[i][j] }

// Checksum sums the current grid, for cross-scheduler result checks.
func (g *SORGrid) Checksum() float64 {
	s := 0.0
	for _, row := range g.src {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// RunSerial executes phases sweeps serially (the reference result).
func (g *SORGrid) RunSerial(phases int) {
	for ph := 0; ph < phases; ph++ {
		for j := 0; j < g.N; j++ {
			g.UpdateRow(j)
		}
		g.Swap()
	}
}
