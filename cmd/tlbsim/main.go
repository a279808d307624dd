// Command tlbsim runs one TLB-prefetching simulation: a workload model (or
// a trace file) against one mechanism configuration, and prints the
// functional statistics — or the cycle accounting with -timing.
//
// Examples:
//
//	tlbsim -workload swim -mech DP -rows 256
//	tlbsim -workload mcf -mech RP -timing
//	tlbsim -trace app.trc -mech ASP -rows 512 -ways 4
//	tlbsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tlbprefetch"
	"tlbprefetch/internal/prof"
	"tlbprefetch/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tlbsim:", err)
		os.Exit(1)
	}
}

// run parses the command line and runs the simulation it describes. Every
// configuration — simulator, cycle model, mechanism — is validated before
// anything is built, so bad input is an error, never a panic.
func run(args []string) error {
	fs := flag.NewFlagSet("tlbsim", flag.ExitOnError)
	var (
		workloadName = fs.String("workload", "", "workload model to run (see -list)")
		traceFile    = fs.String("trace", "", "binary or text trace file to run instead of a workload")
		traceText    = fs.Bool("text", false, "treat -trace as the text format")
		mech         = fs.String("mech", "DP", "mechanism (case-insensitive): "+strings.Join(sweep.Kinds(), ", "))
		rows         = fs.Int("rows", 256, "prediction table rows r (DP/MP/ASP)")
		ways         = fs.Int("ways", 1, "prediction table associativity (DP/MP/ASP)")
		slots        = fs.Int("slots", 2, "prediction slots per row s (DP/MP)")
		refs         = fs.Uint64("refs", 1_000_000, "references to simulate (workload mode)")
		tlbEntries   = fs.Int("tlb", 128, "TLB entries")
		tlbWays      = fs.Int("tlbways", 0, "TLB associativity (0 = fully associative)")
		buffer       = fs.Int("buffer", 16, "prefetch buffer entries")
		pageShift    = fs.Uint("pageshift", 12, "log2 of the page size")
		timing       = fs.Bool("timing", false, "use the cycle model (paper Table 3)")
		missPenalty  = fs.Uint64("miss-penalty", 0, "TLB miss penalty in cycles, memop/buffer-hit costs scale with it (implies -timing; 0 = paper default 100)")
		memopLat     = fs.Uint64("memop-latency", 0, "prefetch memory-op latency in cycles (implies -timing; 0 = half the miss penalty)")
		list         = fs.Bool("list", false, "list the available workload models")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = fs.String("memprofile", "", "write a heap profile to this file")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	if *list {
		fmt.Printf("%-14s %-18s %s\n", "name", "suite", "model")
		for _, w := range tlbprefetch.Workloads() {
			fmt.Printf("%-14s %-18s %s\n", w.Name, w.Suite, w.PaperNote)
		}
		return nil
	}

	// Reject contradictory flag combinations up front instead of silently
	// preferring one input source.
	switch {
	case *workloadName != "" && *traceFile != "":
		return fmt.Errorf("-workload and -trace are mutually exclusive: pick one input source")
	case *traceText && *traceFile == "":
		return fmt.Errorf("-text only applies to trace runs: it requires -trace")
	case *workloadName == "" && *traceFile == "":
		return fmt.Errorf("need -workload or -trace (or -list)")
	}

	cfg := tlbprefetch.Config{
		TLB:           tlbprefetch.TLBConfig{Entries: *tlbEntries, Ways: *tlbWays},
		BufferEntries: *buffer,
		PageShift:     *pageShift,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Either timing-constant flag opts into the cycle model.
	if *missPenalty != 0 || *memopLat != 0 {
		*timing = true
	}
	tc := tlbprefetch.DefaultTimingConfig()
	if *missPenalty != 0 {
		// Same recalibration tlbsweep's -miss-penalty axis uses, so a
		// tlbsim spot check reproduces a swept cell's cycle counts.
		tc = tlbprefetch.ScaledTimingConfig(*missPenalty)
	}
	tc.Config = cfg
	if *memopLat != 0 {
		tc.MemOpLatency = *memopLat
		// An explicit latency below the channel occupancy means the
		// channel is fully serialized at that latency (same rule as
		// tlbsweep's -memop-latency axis).
		if tc.MemOpOccupancy > tc.MemOpLatency {
			tc.MemOpOccupancy = tc.MemOpLatency
		}
	}
	if *timing {
		if err := tc.Validate(); err != nil {
			return err
		}
	}
	m := sweep.Mech{Kind: sweep.ParseKind(*mech), Rows: *rows, Ways: *ways, Slots: *slots}
	if err := m.Validate(); err != nil {
		return err
	}

	stopProf, err := prof.Start("tlbsim", *cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	pf := m.Build()
	if *traceFile != "" {
		return runTrace(cfg, tc, pf, *traceFile, *traceText, *timing)
	}
	w, ok := tlbprefetch.WorkloadByName(*workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", *workloadName)
	}
	if *timing {
		base := tlbprefetch.RunWorkloadTimed(tc, nil, w, *refs)
		st := tlbprefetch.RunWorkloadTimed(tc, pf, w, *refs)
		printTiming(st, base.Cycles)
	} else {
		st := tlbprefetch.RunWorkload(cfg, pf, w, *refs)
		printStats(st)
	}
	return nil
}

func runTrace(cfg tlbprefetch.Config, tc tlbprefetch.TimingConfig,
	pf tlbprefetch.Prefetcher, path string, text, timing bool) error {
	var r tlbprefetch.TraceReader
	if text {
		// Forced text mode, for text traces whose first bytes happen to
		// collide with the binary magic.
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = tlbprefetch.NewTextTraceReader(f)
	} else {
		// Auto-detect text, v1 and v2 binary from the leading bytes.
		or, closer, err := tlbprefetch.OpenTraceFile(path)
		if err != nil {
			return err
		}
		defer closer.Close()
		r = or
	}
	if timing {
		s := tlbprefetch.NewTimingSimulator(tc, pf)
		if err := s.Run(r); err != nil {
			return err
		}
		printTiming(s.Stats(), 0)
		return nil
	}
	s := tlbprefetch.NewSimulator(cfg, pf)
	if err := s.Run(r); err != nil {
		return err
	}
	printStats(s.Stats())
	return nil
}

func printStats(st tlbprefetch.Stats) {
	fmt.Printf("references          %12d\n", st.Refs)
	fmt.Printf("TLB misses          %12d  (miss rate %.4f)\n", st.Misses, st.MissRate())
	fmt.Printf("buffer hits         %12d\n", st.BufferHits)
	fmt.Printf("demand fetches      %12d\n", st.DemandFetches)
	fmt.Printf("prediction accuracy %12.4f\n", st.Accuracy())
	fmt.Printf("prefetches issued   %12d  (%d duplicates dropped, %d never used)\n",
		st.PrefetchesIssued, st.PrefetchDuplicates, st.PrefetchesUnused)
	fmt.Printf("extra memory ops    %12d  (%d metadata + %d fetches)\n",
		st.MemOps(), st.StateMemOps, st.PrefetchesIssued)
}

func printTiming(st tlbprefetch.TimingStats, baselineCycles uint64) {
	printStats(st.Stats)
	fmt.Printf("cycles              %12d  (CPI %.3f)\n", st.Cycles, st.CPI())
	fmt.Printf("stall cycles        %12d\n", st.StallCycles)
	fmt.Printf("in-flight waits     %12d\n", st.InFlightHits)
	fmt.Printf("skipped prefetches  %12d\n", st.SkippedPref)
	if baselineCycles > 0 {
		fmt.Printf("normalized cycles   %12.3f  (vs no prefetching)\n",
			float64(st.Cycles)/float64(baselineCycles))
	}
}
