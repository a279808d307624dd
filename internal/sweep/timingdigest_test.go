package sweep

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/stats"
)

// timingDigestRefs is the stream length every pinned timing cell runs.
const timingDigestRefs = 100_000

// timingDigestPoints are the cycle models the digests are pinned at: the
// paper's Table 3 constants, the same cost structure scaled to a 300-cycle
// walk, and a one-reference-per-cycle core without RP's busy-channel rule.
func timingDigestPoints() map[string]Timing {
	narrow := DefaultTiming()
	narrow.RefsPerCycle = 1
	narrow.RPSkipWhenBusy = false
	return map[string]Timing{
		"default":    DefaultTiming(),
		"scaled300":  ScaledTiming(300),
		"rpc1-skip0": narrow,
	}
}

// TestTimingDigests pins the cycle model's statistics for every mechanism
// kind on four workloads at three timing points. Each cell's TimingStats
// fingerprint must match testdata/timing_digests.txt, so a change to how
// the cycle model is wired into the simulator cannot move a single counter
// unnoticed. The set must exercise RP's busy-channel skip and in-flight
// buffer hits, the two timing paths the functional counters never see.
func TestTimingDigests(t *testing.T) {
	want := readTimingDigests(t)
	var jobs []Job
	var ids []string
	for _, w := range []string{"mcf", "gzip", "swim", "galgel"} {
		for pname, tm := range timingDigestPoints() {
			for _, kind := range Kinds() {
				tm := tm
				m := Mech{Kind: kind, Rows: 256, Ways: 1, Slots: 2}.Normalize()
				jobs = append(jobs, Job{Source: WorkloadSource(w), Mech: m, Config: sim.Default(),
					Refs: timingDigestRefs, Timing: &tm})
				ids = append(ids, w+" "+pname+" "+m.Label())
			}
		}
	}
	res, _, err := (&Runner{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var skipped, inFlight uint64
	for i, r := range res {
		if r.Timing == nil {
			t.Fatalf("%s: no timing stats", ids[i])
		}
		if r.Timing.Stats != r.Stats {
			t.Errorf("%s: timing stats %+v disagree with functional %+v", ids[i], r.Timing.Stats, r.Stats)
		}
		skipped += r.Timing.SkippedPref
		inFlight += r.Timing.InFlightHits
		fp, err := stats.Fingerprint(*r.Timing)
		if err != nil {
			t.Fatal(err)
		}
		if want[ids[i]] != fp {
			t.Errorf("timing digest moved; got line:\n%s %s", ids[i], fp)
		}
	}
	if len(want) != len(jobs) {
		t.Errorf("digest file has %d lines, want %d (one per workload, point and kind)", len(want), len(jobs))
	}
	if skipped == 0 || inFlight == 0 {
		t.Errorf("pinned set does not exercise the timing-only paths: SkippedPref %d, InFlightHits %d", skipped, inFlight)
	}
}

// readTimingDigests parses "workload point mech sha256" lines; '#' starts a
// comment.
func readTimingDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/timing_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 4 {
			t.Fatalf("malformed digest line %q", line)
		}
		out[strings.Join(fs[:3], " ")] = fs[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
