package job

import (
	"fmt"
	"sort"

	"repro/internal/kernels"
	"repro/internal/workload"
)

// Runnable is one built job instance: a phased loop over real data,
// ready for Executor.SubmitPhases. N may be side-effecting — it runs
// once per phase, before that phase is dispatched, which is exactly
// where the real kernels need their inter-phase serial step (SOR's
// buffer swap, transitive closure's column snapshot).
type Runnable struct {
	// Phases is the phase count.
	Phases int
	// N returns the iteration count of phase ph; called once per
	// phase before dispatch.
	N func(ph int) int
	// Body executes iteration i of phase ph.
	Body func(ph, i int)
	// Check returns a result checksum for end-to-end validation, or 0
	// if the kernel has no meaningful one. Call only after the run.
	Check func() float64
}

// Checksum returns Check() when the kernel defines one, else 0.
func (r *Runnable) Checksum() float64 {
	if r.Check == nil {
		return 0
	}
	return r.Check()
}

// Kernel is a registered, nameable loop kernel: everything a remote
// client may run. Build constructs fresh per-job state, so concurrent
// jobs against the same kernel never share data.
type Kernel struct {
	// Name is the wire name (Spec.Kernel).
	Name string
	// Description is one human-readable line for /kernels listings.
	Description string
	// Defaults fills zero Params fields before Build runs.
	Defaults Params
	// Build constructs the job instance from merged params.
	Build func(p Params) (*Runnable, error)
}

// merged overlays non-zero spec params onto the kernel defaults.
func (k Kernel) merged(p Params) Params {
	m := k.Defaults
	if p.N != 0 {
		m.N = p.N
	}
	if p.Phases != 0 {
		m.Phases = p.Phases
	}
	if p.Seed != 0 {
		m.Seed = p.Seed
	}
	if p.Work != 0 {
		m.Work = p.Work
	}
	return m
}

// Lookup resolves a kernel name against the registry.
func Lookup(name string) (Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return Kernel{}, fmt.Errorf("unknown kernel %q (known: %v)", name, Names())
	}
	return k, nil
}

// Names lists registered kernel names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Kernels lists the registered kernels in name order, for /kernels.
func Kernels() []Kernel {
	out := make([]Kernel, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// Build resolves the Spec's kernel, merges its params over the
// kernel's defaults, and constructs the per-job instance.
func Build(s Spec) (*Runnable, error) {
	k, err := Lookup(s.Kernel)
	if err != nil {
		return nil, fieldErr("kernel", "%v", err)
	}
	return k.Build(k.merged(s.Params))
}

var registry = make(map[string]Kernel)

func register(k Kernel) { registry[k.Name] = k }

// The registered kernels mirror the paper's application loops in their
// real (host-executed) forms, plus synthetic spin kernels shaped by
// the §4.4 workload profiles. Names follow internal/cli.BuildKernel.
func init() {
	register(Kernel{
		Name:        "sor",
		Description: "successive over-relaxation sweeps (Fig 3 real form)",
		Defaults:    Params{N: 256, Phases: 8},
		Build: func(p Params) (*Runnable, error) {
			g := kernels.NewSORGrid(p.N)
			return &Runnable{
				Phases: p.Phases,
				// Swap the read/write grids between sweeps: ph's N call
				// happens after the ph-1 barrier, the serial step's slot.
				N: func(ph int) int {
					if ph > 0 {
						g.Swap()
					}
					return p.N
				},
				Body:  func(_, j int) { g.UpdateRow(j) },
				Check: g.Checksum,
			}, nil
		},
	})
	register(Kernel{
		Name:        "gauss",
		Description: "Gaussian elimination, shrinking phases (Fig 4 real form)",
		Defaults:    Params{N: 192},
		Build: func(p Params) (*Runnable, error) {
			g := kernels.NewGaussMatrix(p.N)
			phases := p.N - 1
			if phases < 0 {
				phases = 0
			}
			return &Runnable{
				Phases: phases,
				N:      g.PhaseIterations,
				Body:   g.EliminateRow,
				Check:  g.Checksum,
			}, nil
		},
	})
	register(Kernel{
		Name:        "tc-random",
		Description: "transitive closure, random graph 8% edges (Fig 5 real form)",
		Defaults:    Params{N: 160, Seed: 1},
		Build:       buildTC(func(p Params) *workload.Graph { return workload.RandomGraph(p.N, 0.08, p.Seed) }),
	})
	register(Kernel{
		Name:        "tc-skew",
		Description: "transitive closure, half-clique graph (Fig 6 real form)",
		Defaults:    Params{N: 160},
		Build:       buildTC(func(p Params) *workload.Graph { return workload.CliqueGraph(p.N, p.N/2) }),
	})
	register(Kernel{
		Name:        "adjoint",
		Description: "adjoint convolution, triangular cost (Fig 7 real form)",
		Defaults:    Params{N: 96},
		Build:       buildAdjoint(false),
	})
	register(Kernel{
		Name:        "adjoint-rev",
		Description: "adjoint convolution, reversed index order (Fig 8 real form)",
		Defaults:    Params{N: 96},
		Build:       buildAdjoint(true),
	})
	register(Kernel{
		Name:        "l4",
		Description: "L4 hybrid nested loops, conditional bodies (Fig 9 real form)",
		Defaults:    Params{Phases: 16, Seed: 1, Work: 20},
		Build: func(p Params) (*Runnable, error) {
			r := kernels.NewL4Real(p.Phases, p.Seed, p.Work)
			return &Runnable{Phases: r.Loops(), N: r.LoopN, Body: r.Body}, nil
		},
	})
	register(Kernel{
		Name:        "spin",
		Description: "balanced synthetic spin, uniform cost per iteration",
		Defaults:    Params{N: 2048, Phases: 4, Work: 160},
		Build: func(p Params) (*Runnable, error) {
			return spinRunnable(p, workload.Balanced(float64(p.Work))), nil
		},
	})
	register(Kernel{
		Name:        "spin-triangular",
		Description: "synthetic spin, §4.4 linearly-decreasing cost",
		Defaults:    Params{N: 2048, Phases: 4, Work: 160},
		Build: func(p Params) (*Runnable, error) {
			// Triangular yields (N-i) units; scale so the mean per
			// iteration matches Work, like the balanced kernel.
			c := workload.Triangular(p.N)
			scale := 2 * float64(p.Work) / float64(p.N+1)
			return spinRunnable(p, func(i int) float64 { return c(i) * scale }), nil
		},
	})
	register(Kernel{
		Name:        "spin-step",
		Description: "synthetic spin, §4.4 step cost: first 10% of iterations cost 100×Work",
		Defaults:    Params{N: 2048, Phases: 4, Work: 20},
		Build: func(p Params) (*Runnable, error) {
			w := float64(p.Work)
			return spinRunnable(p, workload.Step(p.N, 0.1, 100*w, w)), nil
		},
	})
	register(Kernel{
		Name:        "spin-irregular",
		Description: "synthetic spin, tapering-style heavy-tailed cost",
		Defaults:    Params{N: 2048, Phases: 4, Seed: 1, Work: 160},
		Build: func(p Params) (*Runnable, error) {
			w := float64(p.Work)
			return spinRunnable(p, workload.Irregular(p.N, 0.05, 8*w, w/2, p.Seed)), nil
		},
	})
}

func buildTC(graph func(Params) *workload.Graph) func(Params) (*Runnable, error) {
	return func(p Params) (*Runnable, error) {
		t := kernels.NewTCGraph(graph(p))
		n := t.G.N
		return &Runnable{
			Phases: n,
			N: func(ph int) int {
				t.BeginPhase(ph)
				return n
			},
			Body: t.UpdateRow,
			Check: func() float64 {
				reach := 0
				for _, row := range t.G.Adj {
					for _, b := range row {
						if b {
							reach++
						}
					}
				}
				return float64(reach)
			},
		}, nil
	}
}

func buildAdjoint(reverse bool) func(Params) (*Runnable, error) {
	return func(p Params) (*Runnable, error) {
		d := kernels.NewAdjointData(p.N, reverse)
		return &Runnable{
			Phases: 1,
			N:      func(int) int { return d.Iterations() },
			Body:   func(_, i int) { d.Body(i) },
			Check:  d.Checksum,
		}, nil
	}
}

// spinRunnable is a pure-CPU phased loop whose iteration i burns
// cost(i) kernels.Spin units — the real-form stand-in for the paper's
// abstract COMPUTE(n) workloads.
func spinRunnable(p Params, cost workload.CostFunc) *Runnable {
	phases := p.Phases
	if phases < 1 {
		phases = 1
	}
	return &Runnable{
		Phases: phases,
		N:      func(int) int { return p.N },
		Body: func(_, i int) {
			units := int(cost(i))
			if units < 1 {
				units = 1
			}
			kernels.Spin(units)
		},
	}
}
