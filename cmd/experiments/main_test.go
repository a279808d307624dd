package main

import (
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsBadOptions pins that option values no experiment can run
// come back as usage errors naming the problem, before any cell is
// declared, instead of panicking inside the sweep engine.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-refs", "0", "fig7"}, "Refs"},
		{[]string{"-buffer", "0", "fig7"}, "BufferEntries"},
		{[]string{"-tlb", "0", "fig9"}, "Entries"},
		{[]string{"-ways", "3", "fig7"}, "not divisible"},
		{[]string{"-slots", "0", "fig7"}, "Slots"},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%v: no error", tc.args)
			continue
		}
		if !errors.As(err, new(usageError)) {
			t.Errorf("%v: %v is not a usage error", tc.args, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}
