package cli

import (
	"strings"
	"testing"
	"time"
)

// Every helper must lead its error with the offending flag's name —
// that is the contract the three CLIs share.
func TestPositiveInt(t *testing.T) {
	if err := PositiveInt("-repeats", 3); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
	for _, v := range []int{0, -2} {
		err := PositiveInt("-repeats", v)
		if err == nil {
			t.Fatalf("PositiveInt(%d): no error", v)
		}
		if !strings.HasPrefix(err.Error(), "-repeats ") {
			t.Errorf("error %q does not lead with the flag name", err)
		}
	}
}

func TestNonNegativeInt(t *testing.T) {
	for _, v := range []int{0, 3} {
		if err := NonNegativeInt("-retries", v); err != nil {
			t.Errorf("NonNegativeInt(%d) rejected: %v", v, err)
		}
	}
	err := NonNegativeInt("-retries", -1)
	if err == nil {
		t.Fatal("NonNegativeInt(-1): no error")
	}
	if !strings.HasPrefix(err.Error(), "-retries ") {
		t.Errorf("error %q does not lead with the flag name", err)
	}
}

func TestPositiveFloat(t *testing.T) {
	if err := PositiveFloat("-threshold", 0.05); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
	if err := PositiveFloat("-threshold", 0); err == nil || !strings.HasPrefix(err.Error(), "-threshold ") {
		t.Errorf("zero threshold: %v", err)
	}
}

func TestPositiveDuration(t *testing.T) {
	if err := PositiveDuration("-watch", 2*time.Second); err != nil {
		t.Errorf("valid interval rejected: %v", err)
	}
	for _, v := range []time.Duration{0, -time.Second} {
		err := PositiveDuration("-watch", v)
		if err == nil {
			t.Fatalf("PositiveDuration(%v): no error", v)
		}
		if !strings.HasPrefix(err.Error(), "-watch ") {
			t.Errorf("error %q does not lead with the flag name", err)
		}
	}
}

func TestNonNegativeDuration(t *testing.T) {
	for _, v := range []time.Duration{0, time.Minute} {
		if err := NonNegativeDuration("-duration", v); err != nil {
			t.Errorf("NonNegativeDuration(%v) rejected: %v", v, err)
		}
	}
	err := NonNegativeDuration("-duration", -time.Second)
	if err == nil {
		t.Fatal("NonNegativeDuration(-1s): no error")
	}
	if !strings.HasPrefix(err.Error(), "-duration ") {
		t.Errorf("error %q does not lead with the flag name", err)
	}
}

func TestUint64Arg(t *testing.T) {
	if v, err := Uint64Arg("trace ID", "42"); err != nil || v != 42 {
		t.Errorf("Uint64Arg(42) = %d, %v", v, err)
	}
	for _, bad := range []string{"0", "-3", "abc", ""} {
		if _, err := Uint64Arg("trace ID", bad); err == nil || !strings.HasPrefix(err.Error(), "trace ID ") {
			t.Errorf("Uint64Arg(%q): %v", bad, err)
		}
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError(nil, nil); err != nil {
		t.Errorf("all-nil returned %v", err)
	}
	err := FirstError(nil, PositiveInt("-n", 0), PositiveInt("-phases", -1))
	if err == nil || !strings.Contains(err.Error(), "-n") {
		t.Errorf("FirstError returned %v, want the -n error", err)
	}
}

func TestProcsAndAlgosFlagPrefix(t *testing.T) {
	if _, err := ProcsFlag("-workers", "1,2,zero"); err == nil ||
		!strings.HasPrefix(err.Error(), "-workers: ") {
		t.Errorf("ProcsFlag error %v", err)
	}
	if counts, err := ProcsFlag("-workers", "1,2,4"); err != nil || len(counts) != 3 {
		t.Errorf("valid list rejected: %v %v", counts, err)
	}
	if _, err := AlgosFlag("-algos", "afs,warp-drive"); err == nil ||
		!strings.HasPrefix(err.Error(), "-algos: ") ||
		!strings.Contains(err.Error(), "warp-drive") {
		t.Errorf("AlgosFlag error %v", err)
	}
}

func TestInjectFlag(t *testing.T) {
	m, err := InjectFlag("-inject", "sim/iris/gauss/afs/p8=1.25, sim/iris/sor/gss/p8=2")
	if err != nil || len(m) != 2 || m["sim/iris/gauss/afs/p8"] != 1.25 {
		t.Fatalf("valid inject rejected: %v %v", m, err)
	}
	if m, err := InjectFlag("-inject", ""); err != nil || m != nil {
		t.Errorf("empty inject: %v %v", m, err)
	}
	for _, bad := range []string{"caseid", "caseid=", "caseid=0", "caseid=-1", "caseid=x"} {
		if _, err := InjectFlag("-inject", bad); err == nil {
			t.Errorf("InjectFlag(%q): no error", bad)
		} else if !strings.HasPrefix(err.Error(), "-inject: ") {
			t.Errorf("InjectFlag(%q) error %q does not lead with the flag name", bad, err)
		}
	}
}
