package main

import (
	"strings"
	"testing"
)

// TestParseArgsValidatesSharedFlags: the daemon's shared flags are
// validated here too, not only in engineview.
func TestParseArgsValidatesSharedFlags(t *testing.T) {
	if _, err := parseArgs(nil); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, args := range [][]string{{"-window", "0"}, {"-duration", "-1s"}} {
		if _, err := parseArgs(args); err == nil || !strings.HasPrefix(err.Error(), args[0]) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", args, err, args[0])
		}
	}
}
