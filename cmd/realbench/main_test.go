package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cli"
)

func TestValidateArgs(t *testing.T) {
	if err := validateArgs(384, 16, 3, 0); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	cases := []struct {
		n, phases, repeats int
		startDelay         time.Duration
		wantFlag           string
	}{
		{384, 16, 0, 0, "-repeats"},
		{384, 16, -2, 0, "-repeats"},
		{0, 16, 3, 0, "-n"},
		{384, 0, 3, 0, "-phases"},
		{384, 16, 3, -time.Millisecond, "-start-delay"},
	}
	for _, c := range cases {
		err := validateArgs(c.n, c.phases, c.repeats, c.startDelay)
		if err == nil {
			t.Errorf("validateArgs(%d, %d, %d): no error", c.n, c.phases, c.repeats)
			continue
		}
		if !strings.Contains(err.Error(), c.wantFlag) {
			t.Errorf("validateArgs(%d, %d, %d) = %q, should name %s",
				c.n, c.phases, c.repeats, err, c.wantFlag)
		}
	}
}

// The sweep flags must reject unknown names with a pointer to what is
// known, not produce an empty table.
func TestSweepFlagRejection(t *testing.T) {
	if _, err := cli.ParseAlgos("afs,warp-drive"); err == nil {
		t.Error("unknown algorithm accepted")
	} else if !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "AFS") {
		t.Errorf("algo error unhelpful: %v", err)
	}
	for _, bad := range []string{"", "1,2,zero", "0", "-1", "1,,4"} {
		if _, err := cli.ParseProcs(bad); err == nil {
			t.Errorf("ParseProcs(%q): no error", bad)
		}
	}
	if counts, err := cli.ParseProcs("1, 2,4"); err != nil || len(counts) != 3 {
		t.Errorf("valid worker list rejected: %v %v", counts, err)
	}
}

func TestRealKernelUnknown(t *testing.T) {
	if _, _, err := realKernel("nope", 8, 2, 0); err == nil {
		t.Error("unknown kernel accepted")
	} else if !strings.Contains(err.Error(), "-kernel") || !strings.Contains(err.Error(), "spin-step") {
		t.Errorf("kernel error should name -kernel and list the registry: %v", err)
	}
	// The one rename: realbench's old "step" kernel is the registry's
	// "spin-step".
	if _, _, err := realKernel("step", 8, 2, 0); err == nil {
		t.Error(`old kernel name "step" still accepted`)
	}
}

// Every run is one phased submission of a fresh registry build: the
// stats cover all phases and every iteration.
func TestRealKernelRunsAllPhases(t *testing.T) {
	run, desc, err := realKernel("sor", 16, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "phases=3") {
		t.Errorf("desc %q should report 3 phases", desc)
	}
	st, err := run(2, "afs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phases != 3 || st.Iterations != 3*16 {
		t.Errorf("phases %d iterations %d, want 3 and 48", st.Phases, st.Iterations)
	}
}

// The -queue-depths table is derived from the run's chunk records, so
// even a short run fills it: one row per queue, the central queue
// named, and each AFS queue's max its ⌈N/P⌉ block.
func TestDepthTableDerivesFromRecords(t *testing.T) {
	run, _, err := realKernel("spin", 64, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		algo string
		rows []string // each row's queue and max
	}{
		{"afs", []string{"0 32", "1 32"}},
		{"gss", []string{"central 64"}},
	} {
		prov := repro.NewProvenanceStream()
		if _, err := run(2, c.algo, repro.WithProvenance(prov)); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		depthTable(prov.Records(), c.algo, 2).Render(&buf)
		out := buf.String()
		if !strings.Contains(out, "queue depths ("+c.algo+", 2 workers, derived from") {
			t.Errorf("%s: table title missing:\n%s", c.algo, out)
		}
		var rows []string
		for _, line := range strings.Split(out, "\n")[3:] {
			if f := strings.Fields(line); len(f) == 4 {
				rows = append(rows, f[0]+" "+f[1])
			}
		}
		if !slices.Equal(rows, c.rows) {
			t.Errorf("%s: rows %q, want %q:\n%s", c.algo, rows, c.rows, out)
		}
	}
}
