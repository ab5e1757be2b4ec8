package forensics

import (
	"fmt"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// CaptureSpec names one simulator run to capture a forensics trace
// from.
type CaptureSpec struct {
	Machine string // machine preset name ("symmetry", "ksr1", ...)
	Kernel  string // kernel name for cli.BuildKernel ("sor", ...)
	Algo    string // scheduling algorithm name ("afs", "gss", ...)
	Procs   int
	N       int   // problem size
	Phases  int   // outer-loop steps (kernels that take one)
	Seed    int64 // for randomised kernels
	Label   string
}

// CaptureSim runs the named kernel on the simulator with full
// telemetry + provenance capture and returns the forensics trace.
// This is the shared capture path for cmd/loopdoctor and perflab. A
// bad name fails with an error prefixed by its loopdoctor capture flag
// (-machine, -algo, -kernel).
func CaptureSim(spec CaptureSpec) (*telemetry.TraceFile, sim.Metrics, error) {
	m, err := machine.ByName(spec.Machine)
	if err != nil {
		return nil, sim.Metrics{}, fmt.Errorf("-machine: %w", err)
	}
	s, err := sched.ByName(spec.Algo)
	if err != nil {
		return nil, sim.Metrics{}, fmt.Errorf("-algo: %w", err)
	}
	build, _, err := cli.BuildKernel(spec.Kernel, spec.N, spec.Phases, spec.Seed, m)
	if err != nil {
		return nil, sim.Metrics{}, fmt.Errorf("-kernel: %w", err)
	}
	events := telemetry.NewLog[telemetry.Event]()
	prov := telemetry.NewLog[telemetry.Prov]()
	met, err := sim.RunOpts(m, spec.Procs, s, build(), sim.Options{
		Observer: telemetry.TeeObservers(telemetry.ObserveEvents(events, "cycles"), telemetry.ObserveProv(prov)),
	})
	if err != nil {
		return nil, sim.Metrics{}, fmt.Errorf("simulate %s/%s/%s: %w",
			spec.Kernel, spec.Algo, spec.Machine, err)
	}
	label := spec.Label
	if label == "" {
		label = fmt.Sprintf("%s/%s/%s/p%d", spec.Algo, spec.Kernel, spec.Machine, spec.Procs)
	}
	return &telemetry.TraceFile{
		Meta: telemetry.TraceMeta{
			Label:     label,
			Substrate: "sim",
			Machine:   spec.Machine,
			Kernel:    spec.Kernel,
			Algo:      spec.Algo,
			Procs:     spec.Procs,
			TimeUnit:  "cycles",
		},
		Events: events.Records(),
		Prov:   prov.Records(),
	}, met, nil
}
