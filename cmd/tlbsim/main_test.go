package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadConfiguration pins that invalid simulator, cycle-model
// and mechanism settings come back as errors naming the problem instead of
// panicking inside a constructor.
func TestRunRejectsBadConfiguration(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tlbways", "3"}, "not divisible"},
		{[]string{"-buffer", "0"}, "BufferEntries"},
		{[]string{"-pageshift", "70"}, "PageShift"},
		{[]string{"-tlb", "0"}, "Entries"},
		{[]string{"-mech", "DP", "-rows", "0"}, "row count"},
		{[]string{"-mech", "XYZ"}, "unknown mechanism"},
		{[]string{"-timing", "-tlbways", "3"}, "not divisible"},
	} {
		args := append([]string{"-workload", "swim", "-refs", "1000"}, tc.args...)
		err := run(args)
		if err == nil {
			t.Errorf("%v: no error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// TestRunAcceptsCaseInsensitiveKinds runs tiny simulations with kinds
// spelled in any case, through the functional and the cycle model.
func TestRunAcceptsCaseInsensitiveKinds(t *testing.T) {
	for _, args := range [][]string{
		{"-mech", "dp-pc"},
		{"-mech", "None"},
		{"-mech", "rp", "-timing"},
	} {
		if err := run(append([]string{"-workload", "swim", "-refs", "1000"}, args...)); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
