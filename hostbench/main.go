// Command hostbench is the repository's host-time benchmark: how long the
// simulator takes to run the paper's design-space sweeps, not what the
// modelled TLB would do. One closed-loop process runs one workload at a
// time on GOMAXPROCS (= at most nproc) sweep workers, checks every output,
// and prints each end-to-end metric by name with its unit; --trace 1 adds
// a separate traced run that splits the host time by layer. See README.md
// in this directory for the workloads, the metrics and the layer table.
//
//	bash hostbench/run.sh --workload grid-synth --seed 3 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tlbprefetch/internal/sweep"
)

// Header identifies the machine and build a result was measured on.
type Header struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Date       string `json:"date"`
}

func machineHeader() Header {
	h := Header{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown (not built in a git checkout)",
		Date: time.Now().UTC().Format(time.RFC3339)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	h.Source = sourceDigest(".")
	return h
}

// sourceDigest hashes the module's Go sources and go.mod files under root,
// which identifies the code measured when no commit is available.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// samples are the untraced measurements of one run.
type samples struct {
	setup, wall, cached []float64
	cellRefs            uint64
}

// A run sets up at least minSetups times and at most setupReps times,
// stopping once the set-ups have taken setupBudget seconds: a set-up that
// takes microseconds (a fresh store) gets a median over many samples, one
// that records traces gets three.
const (
	minSetups   = 3
	setupReps   = 50
	setupBudget = 0.05
)

// settle collects garbage and returns freed memory to the OS before a
// timed phase, so that no phase pays for its predecessor's garbage and the
// peak resident size reflects the phase's own working set.
func settle() { debug.FreeOSMemory() }

// cachedReps is how many times each iteration repeats the cached phase,
// so that cached_s is a median over many samples: the grids' cached phase
// takes a few tens of milliseconds, the figures' under half a second.
func cachedReps(name string) int {
	if name == "figures" {
		return 3
	}
	return 10
}

func newWorkload(name string, seed uint64, workers int) (benchWorkload, error) {
	switch name {
	case "figures":
		return &figuresRun{}, nil
	case "grid-synth":
		return &gridRun{seed: seed, workers: workers}, nil
	case "grid-trace":
		return &gridRun{seed: seed, traces: true, workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (figures, grid-synth, grid-trace)", name)
}

// newGate builds the correctness gate for a workload and seed.
func newGate(seed uint64, w benchWorkload) *gate {
	g := &gate{}
	switch w := w.(type) {
	case *figuresRun:
		g.pinText = pinFigures
	case *gridRun:
		if seed == 0 {
			g.pinCell = pinGridCells(w.cellLabels)
		}
	}
	return g
}

// measure first runs the set-up several times, each in a fresh directory,
// for the setup_s samples; the phases use the inputs of the last one. It
// then runs untraced iterations — a fresh store, the cold phase, the cached
// phases — until the next one would end well past the time budget.
func measure(name string, w benchWorkload, g *gate, dir string, seconds float64, first *[]sweep.Result) (samples, error) {
	var s samples
	settle()
	var setupDir string
	for r, total := 0, 0.0; r < setupReps && (r < minSetups || total < setupBudget); r++ {
		if setupDir != "" {
			if err := os.RemoveAll(setupDir); err != nil {
				return s, err
			}
		}
		setupDir = filepath.Join(dir, "setup"+strconv.Itoa(r))
		t := time.Now()
		if err := w.setup(setupDir); err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		d := since(t)
		s.setup = append(s.setup, d)
		total += d
	}
	start := time.Now()
	for i := 0; ; i++ {
		itStart := time.Now()
		itDir := filepath.Join(dir, "it"+strconv.Itoa(i))
		if err := w.fresh(itDir); err != nil {
			return s, err
		}
		settle()
		t := time.Now()
		cold, err := w.cold()
		if err != nil {
			return s, fmt.Errorf("cold phase: %w", err)
		}
		s.wall = append(s.wall, since(t))
		s.cellRefs = w.cellRefs()
		if i == 0 && first != nil {
			if *first, err = cold.collect(); err != nil {
				return s, err
			}
		}
		if err := g.phase(fmt.Sprintf("cold phase %d", i), cold); err != nil {
			return s, err
		}
		for r := 0; r < cachedReps(name); r++ {
			settle()
			t = time.Now()
			c, err := w.cached()
			if err != nil {
				return s, fmt.Errorf("cached phase: %w", err)
			}
			s.cached = append(s.cached, since(t))
			if err := g.phase(fmt.Sprintf("cached phase %d.%d", i, r), c); err != nil {
				return s, err
			}
		}
		if err := os.RemoveAll(itDir); err != nil {
			return s, err
		}
		it := since(itStart)
		if since(start)+it/2 >= seconds {
			return s, nil
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: figures, grid-synth or grid-trace")
		seed     = flag.Uint64("seed", 0, "input seed: one stream seed per source is derived from it (0 = paper-calibrated streams)")
		seconds  = flag.Float64("seconds", 30, "time budget of the untraced iterations")
		traced   = flag.Int("trace", 0, "1: also run one traced iteration and report the per-layer metrics instead")
		out      = flag.String("out", ".bench_build", "directory for work files and span traces")
		pinsPath = flag.String("write-pins", "", "grids, seed 0: write the first cold phase's cell fingerprints to this file")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...)
		return 1
	}
	if flag.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	hdr := machineHeader()
	if hdr.GOMAXPROCS > hdr.NProc {
		return fail("GOMAXPROCS=%d exceeds nproc=%d: refusing to measure oversubscribed workers", hdr.GOMAXPROCS, hdr.NProc)
	}
	workers := hdr.GOMAXPROCS
	w, err := newWorkload(*name, *seed, workers)
	if err != nil {
		return fail("%v", err)
	}
	dir := filepath.Join(*out, "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("# machine: cpu=%q nproc=%d gomaxprocs=%d workers=%d go=%s commit=%s source=%s date=%s\n",
		hdr.CPU, hdr.NProc, hdr.GOMAXPROCS, workers, hdr.Go, hdr.Commit, hdr.Source, hdr.Date)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)
	if *name == "figures" {
		fmt.Println("# figures runs the paper-calibrated streams: experiments.Options has no seed hook, so --seed does not change its inputs")
	}

	if f, ok := w.(*figuresRun); ok {
		f.track = *traced == 1
	}
	g := newGate(*seed, w)

	var first []sweep.Result
	s, err := measure(*name, w, g, dir, *seconds, &first)
	if err != nil {
		return fail("%s: %v", *name, err)
	}
	if gr, ok := w.(*gridRun); ok {
		if *pinsPath != "" {
			if err := writePins(*pinsPath, gr.cellLabels(), first); err != nil {
				return fail("%v", err)
			}
		}
		if gr.traces {
			// Every grid-trace cell must equal its grid-synth cell: the
			// trace is a recording of the same seeded stream.
			synth := &gridRun{seed: *seed, workers: workers}
			if err := synth.setup(filepath.Join(dir, "synth")); err != nil {
				return fail("%v", err)
			}
			p, err := synth.cold()
			if err != nil {
				return fail("grid-synth cross-check: %v", err)
			}
			want, err := p.collect()
			if err != nil {
				return fail("grid-synth cross-check: %v", err)
			}
			g.sameStats("grid-trace vs grid-synth", first, gr.cellLabels(), want, synth.cellLabels())
		}
	}

	metrics := map[string]metric{}
	wall, cached := median(s.wall), median(s.cached)
	if *traced == 0 {
		metrics["setup_s"] = metric{median(s.setup), "s"}
		metrics["wall_s"] = metric{wall, "s"}
		metrics["cell_refs_per_s"] = metric{float64(s.cellRefs) / wall, "refs/s"}
		metrics["cached_s"] = metric{cached, "s"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		lm, err := tracedRun(*name, *seed, w, g, dir, *out, hdr, wall+cached)
		if err != nil {
			return fail("traced run: %v", err)
		}
		metrics = lm
	}

	fmt.Printf("# iterations=%d cold-phase samples=%v\n", len(s.wall), rounded(s.wall))
	fmt.Printf("# cached-phase samples=%v\n", rounded(s.cached))
	fmt.Printf("# set-up: %d samples, median %.6f s\n", len(s.setup), median(s.setup))
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Printf("%-34s %16.6g %s (%d of %d cells and renderings)\n", "failed_ratio",
		float64(g.failed)/float64(g.attempted), "ratio", g.failed, g.attempted)
	for _, p := range g.problems {
		fmt.Println("# FAILED:", p)
	}
	b, err := json.Marshal(result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(b))
	return 0
}

func rounded(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 6, 64)
	}
	return out
}
