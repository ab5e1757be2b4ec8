package job_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sched"
)

// cfgSig summarises the schedulable identity of a core.Config. The
// struct holds function values (sizer factories), so equality is
// checked over the fields that define behaviour rather than with
// reflect.DeepEqual.
func cfgSig(c core.Config) string {
	return fmt.Sprintf("%s|fam=%d|best=%t|le=%t|victim=%d|afsK=%d|procs=%d|grain=%d",
		c.Spec.Name, c.Spec.Family, c.Spec.BestStatic, c.Spec.LastExecuted,
		c.Spec.Victim, c.Spec.AFS.K, c.Procs, c.MinChunk)
}

// TestSpecRoundTrip is the satellite-4 coverage: JSON marshal →
// unmarshal → Config produces an identical core.Config for every
// registered scheduler × every registered kernel.
func TestSpecRoundTrip(t *testing.T) {
	for _, ss := range sched.AllSpecs() {
		for _, kname := range job.Names() {
			spec := job.Spec{
				Kernel:     kname,
				Params:     job.Params{N: 32, Phases: 2, Seed: 3, Work: 5},
				Scheduler:  ss.Name,
				Procs:      4,
				Grain:      2,
				Tenant:     "team-a",
				DeadlineMS: 500,
			}
			want, err := spec.Config()
			if err != nil {
				t.Fatalf("%s/%s: Config: %v", ss.Name, kname, err)
			}
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", ss.Name, kname, err)
			}
			var back job.Spec
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", ss.Name, kname, err)
			}
			if back != spec {
				t.Errorf("%s/%s: spec drifted over the wire:\n  sent %+v\n  got  %+v", ss.Name, kname, spec, back)
			}
			// Older clients still send the retired "priority" field;
			// the decoder ignores unknown fields.
			var legacy job.Spec
			raw := strings.TrimSuffix(string(b), "}") + `,"priority":1}`
			if err := json.Unmarshal([]byte(raw), &legacy); err != nil || legacy != spec {
				t.Errorf("%s/%s: legacy spec %s decoded to %+v (%v), want %+v", ss.Name, kname, raw, legacy, err, spec)
			}
			got, err := back.Config()
			if err != nil {
				t.Fatalf("%s/%s: Config after round-trip: %v", ss.Name, kname, err)
			}
			if cfgSig(got) != cfgSig(want) {
				t.Errorf("%s/%s: config drifted:\n  want %s\n  got  %s", ss.Name, kname, cfgSig(want), cfgSig(got))
			}
		}
	}
}

// TestSpecDefaults pins the service defaults: empty scheduler lowers
// to AFS, zero procs/grain pass through as "executor decides".
func TestSpecDefaults(t *testing.T) {
	cfg, err := job.Spec{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec.Name != "AFS" || cfg.Procs != 0 || cfg.MinChunk != 0 {
		t.Fatalf("zero Spec lowered to %s procs=%d grain=%d, want AFS/0/0",
			cfg.Spec.Name, cfg.Procs, cfg.MinChunk)
	}
}

// TestSpecValidateNamesField checks that validation errors name the
// offending JSON field (the serving-side mirror of satellite 2's
// option-naming errors).
func TestSpecValidateNamesField(t *testing.T) {
	cases := []struct {
		spec job.Spec
		want string
	}{
		{job.Spec{Scheduler: "nope"}, "jobspec.scheduler"},
		{job.Spec{Procs: -1}, "jobspec.procs"},
		{job.Spec{Grain: -2}, "jobspec.grain"},
		{job.Spec{DeadlineMS: -5}, "jobspec.deadline_ms"},
		{job.Spec{Kernel: "nope"}, "jobspec.kernel"},
		{job.Spec{Params: job.Params{N: -1}}, "jobspec.params.n"},
		{job.Spec{Params: job.Params{Phases: -1}}, "jobspec.params.phases"},
		{job.Spec{Params: job.Params{Work: -1}}, "jobspec.params.work"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%+v: Validate() = nil, want error naming %s", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q does not name field %s", c.spec, err, c.want)
		}
	}
	if err := (job.Spec{}).RequireKernel(); err == nil || !strings.Contains(err.Error(), "jobspec.kernel") {
		t.Errorf("RequireKernel on empty spec = %v, want jobspec.kernel error", err)
	}
}

// runSerial drives a Runnable to completion on the calling goroutine,
// mirroring the engine's phase order (N before the phase's bodies).
func runSerial(r *job.Runnable) {
	for ph := 0; ph < r.Phases; ph++ {
		n := r.N(ph)
		for i := 0; i < n; i++ {
			r.Body(ph, i)
		}
	}
}

// TestKernelsBuildAndRun builds every registered kernel at a small
// size, runs it serially, and checks that a second build reproduces
// the same checksum — per-job state is fresh and deterministic.
func TestKernelsBuildAndRun(t *testing.T) {
	for _, kname := range job.Names() {
		spec := job.Spec{Kernel: kname, Params: job.Params{N: 24, Phases: 2, Work: 1}}
		first, err := job.Build(spec)
		if err != nil {
			t.Fatalf("%s: Build: %v", kname, err)
		}
		if first.Phases < 1 || first.N == nil || first.Body == nil {
			t.Fatalf("%s: degenerate runnable %+v", kname, first)
		}
		runSerial(first)
		second, err := job.Build(spec)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", kname, err)
		}
		runSerial(second)
		if a, b := first.Checksum(), second.Checksum(); a != b {
			t.Errorf("%s: checksum not reproducible: %v vs %v", kname, a, b)
		}
	}
}

// FuzzSpecRoundTrip feeds arbitrary JSON at the wire decoder: any
// bytes that decode into a valid Spec must survive a re-encode cycle
// with an identical lowered config.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add(`{"kernel":"sor"}`)
	f.Add(`{"kernel":"gauss","params":{"n":64},"scheduler":"gss","procs":2}`)
	f.Add(`{"kernel":"tc-random","params":{"n":40,"seed":7},"scheduler":"chunk(8)","grain":4}`)
	f.Add(`{"kernel":"spin","params":{"work":10},"scheduler":"afs-le","tenant":"t1","priority":3}`)
	f.Add(`{"scheduler":"factoring","deadline_ms":1000}`)
	f.Add(`{"kernel":"l4","params":{"phases":2,"work":1},"scheduler":"AFS(k=2)"}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var spec job.Spec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		want, err := spec.Config()
		if err != nil {
			t.Fatalf("valid spec %q failed to lower: %v", raw, err)
		}
		var back job.Spec
		if err := json.Unmarshal([]byte(spec.Canon()), &back); err != nil {
			t.Fatalf("canon re-decode of %q: %v", raw, err)
		}
		got, err := back.Config()
		if err != nil {
			t.Fatalf("re-decoded spec from %q failed to lower: %v", raw, err)
		}
		if cfgSig(got) != cfgSig(want) {
			t.Fatalf("config drift through canon for %q: %s vs %s", raw, cfgSig(want), cfgSig(got))
		}
	})
}
