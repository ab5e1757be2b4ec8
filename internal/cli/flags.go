package cli

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
)

// The flag-validation helpers below give every command-line tool the
// same offending-flag error shape: the message always leads with the
// flag's name ("-repeats must be >= 1 (got 0)", "-algos: unknown
// algorithm ..."), so a user of realbench, perflab or loopdoctor sees
// identical diagnostics for identical mistakes.

// PositiveInt rejects values below 1, naming the offending flag.
func PositiveInt(flagName string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s must be >= 1 (got %d)", flagName, v)
	}
	return nil
}

// NonNegativeInt rejects values below 0, naming the offending flag —
// the validator for count flags where zero is a meaningful "off"
// (loopdoctor attach -retries 0 disables retrying).
func NonNegativeInt(flagName string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (got %d)", flagName, v)
	}
	return nil
}

// PositiveFloat rejects non-positive values, naming the flag.
func PositiveFloat(flagName string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("%s must be > 0 (got %g)", flagName, v)
	}
	return nil
}

// PositiveDuration rejects non-positive durations, naming the flag —
// the validator behind every polling-interval flag (loopdoctor attach
// -watch), where zero or negative would spin a hot loop.
func PositiveDuration(flagName string, v time.Duration) error {
	if v <= 0 {
		return fmt.Errorf("%s must be a positive duration (got %v)", flagName, v)
	}
	return nil
}

// NonNegativeDuration rejects negative durations, naming the flag —
// the validator for run-length flags where zero means "no limit" (a
// daemon's -duration 0 runs until signalled).
func NonNegativeDuration(flagName string, v time.Duration) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (got %v)", flagName, v)
	}
	return nil
}

// Uint64Arg parses a positive integer operand (e.g. loopdoctor's
// trace ID), naming the operand in the error like the flag validators
// name their flag.
func Uint64Arg(name, val string) (uint64, error) {
	v, err := strconv.ParseUint(val, 10, 64)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("%s must be a positive integer (got %q)", name, val)
	}
	return v, nil
}

// OneOf rejects values outside the allowed set, naming the flag and
// spelling out the choices.
func OneOf(flagName, v string, allowed ...string) error {
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return fmt.Errorf("%s must be one of %s (got %q)", flagName, strings.Join(allowed, ", "), v)
}

// Subset rejects comma-separated values outside the allowed set,
// naming the flag and the first offending entry. Empty means "all"
// and is accepted.
func Subset(flagName, val string, allowed ...string) ([]string, error) {
	if strings.TrimSpace(val) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(val, ",") {
		part = strings.TrimSpace(part)
		if err := OneOf(flagName, part, allowed...); err != nil {
			return nil, err
		}
		out = append(out, part)
	}
	return out, nil
}

// FirstError returns the first non-nil error, letting callers validate
// a flag set in one expression:
//
//	if err := cli.FirstError(
//	    cli.PositiveInt("-n", n),
//	    cli.PositiveInt("-repeats", repeats),
//	); err != nil { ... }
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ProcsFlag parses a comma-separated processor-count list, prefixing
// errors with the flag's name.
func ProcsFlag(flagName, val string) ([]int, error) {
	out, err := ParseProcs(val)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return out, nil
}

// AlgosFlag resolves a comma-separated algorithm list, prefixing
// errors with the flag's name.
func AlgosFlag(flagName, val string) ([]sched.Spec, error) {
	out, err := ParseAlgos(val)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return out, nil
}

// AddrFlag validates a host:port listen address, naming the flag —
// the standard validator for every command that starts an HTTP server
// (perflab serve, engineview). The host may be empty (all interfaces)
// and the port may be 0 (kernel-assigned) or a service name; a value
// with no port at all is rejected before net.Listen turns it into a
// confusing bind error.
func AddrFlag(flagName, val string) (string, error) {
	if _, _, err := net.SplitHostPort(val); err != nil {
		return "", fmt.Errorf("%s must be a host:port listen address (got %q): %v", flagName, val, err)
	}
	return val, nil
}

// InjectFlag parses a 'caseID=factor,...' sample-multiplier list (the
// perflab gate's synthetic-slowdown test hook), prefixing errors with
// the flag's name.
func InjectFlag(flagName, val string) (map[string]float64, error) {
	if val == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(val, ",") {
		id, factor, ok := strings.Cut(pair, "=")
		f, err := strconv.ParseFloat(factor, 64)
		if !ok || err != nil || f <= 0 {
			return nil, fmt.Errorf("%s: bad entry %q (want caseID=factor)", flagName, pair)
		}
		out[strings.TrimSpace(id)] = f
	}
	return out, nil
}
