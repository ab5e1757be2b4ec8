// Package job defines the serializable loop-job specification shared
// by every submission path in the module: the public variadic options
// on repro.ParallelFor/Executor lower onto a job.Spec, internal/serve
// accepts one as the HTTP request body, and serveclient marshals the
// same struct on the client side. One request shape, local and remote.
//
// A Spec names *what* to run — a pre-registered kernel plus its size
// parameters — and *how* to run it — scheduler, worker count, grain —
// without carrying any function values, so it survives JSON
// round-trips byte-for-byte (see TestSpecRoundTrip). Loop bodies never
// cross the wire: serve resolves the kernel name against the registry
// in kernels.go, exactly like internal/cli resolves simulator program
// names.
package job

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Params sizes a named kernel. The zero value of each field means
// "kernel default" (see Kernel.Defaults); kernels ignore fields they
// have no use for.
type Params struct {
	// N is the problem size (matrix order, grid side, node count...).
	N int `json:"n,omitempty"`
	// Phases is the phase/sweep count for kernels with a free phase
	// dimension (sor sweeps, l4 outer iterations, spin phases).
	Phases int `json:"phases,omitempty"`
	// Seed drives kernels with randomised structure (tc-random edge
	// placement, l4 branch conditions, spin-irregular heavy tail).
	Seed int64 `json:"seed,omitempty"`
	// Work scales per-iteration CPU cost for synthetic kernels, in
	// kernels.Spin units.
	Work int `json:"work,omitempty"`
}

// Spec is the canonical, serializable description of one loop job.
type Spec struct {
	// Kernel names a registered kernel (see Kernels). Required for
	// submission over the wire; optional locally, where the caller
	// provides the loop body directly and the Spec only carries the
	// scheduling half.
	Kernel string `json:"kernel,omitempty"`
	// Params sizes the kernel; zero fields take the kernel's defaults.
	Params Params `json:"params,omitempty"`
	// Scheduler is a sched.ByName algorithm name ("afs", "gss",
	// "factoring", "chunk(8)", ...). Empty means AFS — the paper's
	// affinity scheduler is the service default.
	Scheduler string `json:"scheduler,omitempty"`
	// Procs is the worker count; 0 means the executor decides (all of
	// its workers).
	Procs int `json:"procs,omitempty"`
	// Grain is the minimum chunk size (core.Config.MinChunk); 0 or 1
	// means no coarsening.
	Grain int `json:"grain,omitempty"`
	// Tenant identifies the submitting principal for fair queuing and
	// quota accounting. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMS bounds queue wait + execution in milliseconds; 0
	// means no deadline. Serve cancels the job's context when it
	// expires.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// fieldErr names the offending Spec field the way cli.FirstError names
// a flag, so validation failures read "jobspec.procs: must be ≥ 0".
func fieldErr(field, format string, args ...any) error {
	return fmt.Errorf("jobspec.%s: %s", field, fmt.Sprintf(format, args...))
}

// Validate checks the Spec's fields without resolving the kernel
// against the registry (RequireKernel does that too). Errors name the
// offending JSON field.
func (s Spec) Validate() error {
	_, err := s.check()
	return err
}

// check validates the Spec and returns its resolved scheduler (AFS
// when none is named), so Config looks the name up only once.
func (s Spec) check() (sched.Spec, error) {
	spec := sched.SpecAFS()
	if s.Scheduler != "" {
		var err error
		if spec, err = sched.ByName(s.Scheduler); err != nil {
			return spec, fieldErr("scheduler", "%v", err)
		}
	}
	if s.Procs < 0 {
		return spec, fieldErr("procs", "must be ≥ 0 (0 = executor default), got %d", s.Procs)
	}
	if s.Grain < 0 {
		return spec, fieldErr("grain", "must be ≥ 0, got %d", s.Grain)
	}
	if s.DeadlineMS < 0 {
		return spec, fieldErr("deadline_ms", "must be ≥ 0, got %d", s.DeadlineMS)
	}
	if s.Params.N < 0 {
		return spec, fieldErr("params.n", "must be ≥ 0, got %d", s.Params.N)
	}
	if s.Params.Phases < 0 {
		return spec, fieldErr("params.phases", "must be ≥ 0, got %d", s.Params.Phases)
	}
	if s.Params.Work < 0 {
		return spec, fieldErr("params.work", "must be ≥ 0, got %d", s.Params.Work)
	}
	if s.Kernel != "" {
		if _, err := Lookup(s.Kernel); err != nil {
			return spec, fieldErr("kernel", "%v", err)
		}
	}
	return spec, nil
}

// RequireKernel validates the Spec for wire submission, where a kernel
// name is mandatory (the body cannot cross the wire).
func (s Spec) RequireKernel() error {
	if s.Kernel == "" {
		return fieldErr("kernel", "required: loop bodies cannot cross the wire; submit a registered kernel name (%v)", Names())
	}
	return s.Validate()
}

// Config lowers the Spec onto the engine's submission config. This is
// the single lowering path: repro's option list builds a Spec and
// calls Config, and serve calls it on the decoded request, so a JSON
// round-trip cannot drift from local submission (TestSpecRoundTrip
// pins this).
func (s Spec) Config() (core.Config, error) {
	spec, err := s.check()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Spec: spec, Procs: s.Procs, MinChunk: s.Grain}, nil
}

// Deadline converts DeadlineMS to a duration (0 = none).
func (s Spec) Deadline() time.Duration {
	return time.Duration(s.DeadlineMS) * time.Millisecond
}

// Canon returns the canonical JSON encoding of the Spec (stable field
// order, zero fields omitted) — handy for logging and cache keys.
func (s Spec) Canon() string {
	b, err := json.Marshal(s)
	if err != nil { // unreachable: Spec has no unmarshalable fields
		return fmt.Sprintf("jobspec<%v>", err)
	}
	return string(b)
}
