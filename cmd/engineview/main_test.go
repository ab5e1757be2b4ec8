package main

import (
	"strings"
	"testing"
)

// TestParseArgsRejects: flag values that used to be silently replaced
// (a non-positive -window, a negative -duration, an armed storm that
// lasts no time) are refused with an error naming the flag.
func TestParseArgsRejects(t *testing.T) {
	if _, err := parseArgs(nil); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if _, err := parseArgs([]string{"-storm-for", "0"}); err != nil {
		t.Errorf("-storm-for 0 without a storm rejected: %v", err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-window", "0"}, "-window"},
		{[]string{"-window", "-5s"}, "-window"},
		{[]string{"-duration", "-1s"}, "-duration"},
		{[]string{"-storm-after", "5s", "-storm-for", "0"}, "-storm-for"},
		{[]string{"-storm-after", "-1s"}, "-storm-after"},
		{[]string{"-algos", ""}, "-algos"},
	} {
		_, err := parseArgs(tc.args)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
