package sim

import (
	"repro/internal/machine"
	"repro/internal/sched"
)

// HeldEngine returns a RunOpts that bypasses the pool: it runs on one
// newly built engine, reset for each call. A first call is the
// reference a run on a pooled engine must reproduce.
func HeldEngine() func(*machine.Machine, int, sched.Spec, Program, Options) Metrics {
	return newEngine().simulate
}
