package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tlbprefetch/internal/experiments"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// phase is what one timed phase leaves behind. collect returns the cells
// the phase produced or read back; it runs after the clock stops.
type phase struct {
	collect  func() ([]sweep.Result, error)
	rendered []byte
	figures  []byte
}

// storeTimes are the store calls the traced run times on their own, in
// addition to their spans.
type storeTimes struct {
	openMs, selectMs, saveMs float64
	gets                     int
	getNs                    int64
	segReads, segWrites      int
	bytesWritten             int64
}

// benchWorkload is one workload: a set-up that prepares the inputs and a
// fresh store, a cold phase that fills the store, and a cached phase that
// runs the same declaration again against it.
type benchWorkload interface {
	setup(dir string) error
	// fresh binds a new empty store in dir, keeping the inputs of the last
	// set-up.
	fresh(dir string) error
	cold() (phase, error)
	cached() (phase, error)
	// cellRefs is the references (measured plus warmup) the cold phase
	// simulates, summed over its cells.
	cellRefs() uint64
	// traced runs the cold and then the cached phase with every layer call
	// timed; it follows a fresh setup.
	traced(t *tracer, st *storeTimes) (cold, cached phase, err error)
}

// storeBytes sums the sizes of the store's index and segment files.
func storeBytes(path string) int64 {
	var n int64
	if fi, err := os.Stat(path); err == nil {
		n += fi.Size()
	}
	ents, _ := os.ReadDir(path + ".d") // no segment directory: nothing more to count
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// --- figures -----------------------------------------------------------

// extCacheRefs is what experiments.ExtCache simulates outside the sweep
// store: three private cache-level models × three mechanisms × Refs/4.
func extCacheRefs(o experiments.Options) uint64 { return 9 * (o.Refs / 4) }

// figuresRun runs the twelve experiments of `experiments all` at their
// default options. experiments.Options has no seed hook, so this workload
// always simulates the paper-calibrated streams, whatever the seed.
type figuresRun struct {
	track bool // record which cells each experiment adds (the traced run needs it)
	tally sweep.Summary
	// coldShards is how many shards the last untraced cold phase ran.
	coldShards int
	path       string
	store      *sweep.Store
	added      [][]sweep.Key
}

func (f *figuresRun) setup(dir string) error { return f.fresh(dir) }

func (f *figuresRun) fresh(dir string) error {
	f.path = filepath.Join(dir, "figures.json")
	s, err := sweep.OpenStore(f.path)
	f.store = s
	return err
}

// runAll runs every experiment against store and renders its text block,
// as `experiments -q -store <path> all` does, then the report figures.
func (f *figuresRun) runAll(store *sweep.Store, track bool) (text, figs []byte) {
	opts := experiments.DefaultOptions()
	opts.Store = store
	opts.Tally = &f.tally
	f.tally = sweep.Summary{}
	seen := map[string]bool{}
	if track {
		f.added = make([][]sweep.Key, len(allExperiments))
	}
	var b strings.Builder
	outs := make([]experimentOut, len(allExperiments))
	for i, e := range allExperiments {
		outs[i] = e.run(opts)
		b.WriteString(outs[i].text())
		if track {
			for _, k := range store.IndexKeys() {
				if h := k.Hash(); !seen[h] {
					seen[h] = true
					f.added[i] = append(f.added[i], k)
				}
			}
		}
	}
	return []byte(b.String()), renderFigures(outs)
}

func selectAll(s *sweep.Store) func() ([]sweep.Result, error) {
	return func() ([]sweep.Result, error) { return sweep.Filter{}.Select(s) }
}

func (f *figuresRun) cold() (phase, error) {
	text, figs := f.runAll(f.store, f.track)
	f.coldShards = f.tally.Shards
	if err := f.store.Save(); err != nil {
		return phase{}, err
	}
	return phase{collect: selectAll(f.store), rendered: text, figures: figs}, nil
}

func (f *figuresRun) cached() (phase, error) {
	s, err := sweep.OpenStore(f.path)
	if err != nil {
		return phase{}, err
	}
	text, figs := f.runAll(s, false)
	sel, err := sweep.Filter{}.Select(s)
	if err != nil {
		return phase{}, err
	}
	return phase{collect: func() ([]sweep.Result, error) { return sel, nil }, rendered: text, figures: figs}, nil
}

func (f *figuresRun) cellRefs() uint64 {
	var n uint64
	for _, k := range f.store.IndexKeys() {
		n += k.Refs + k.Warmup
	}
	return n + extCacheRefs(experiments.DefaultOptions())
}

// jobFromKey rebuilds the job a stored key names.
func jobFromKey(k sweep.Key) sweep.Job {
	return sweep.Job{
		Source: k.Source,
		Mix:    k.Mix,
		Mech:   k.Mech,
		Config: sim.Config{
			TLB:           tlbConfig(k.TLBEntries, k.TLBWays),
			BufferEntries: k.Buffer,
			PageShift:     k.PageShift,
		},
		Refs:   k.Refs,
		Warmup: k.Warmup,
		Seed:   k.Seed,
		Timing: k.Timing,
	}
}

func (f *figuresRun) traced(t *tracer, st *storeTimes) (cold, cached phase, err error) {
	if f.added == nil {
		return cold, cached, fmt.Errorf("figures: the traced run needs the cells each experiment adds (run an untraced cold phase with tracking first)")
	}
	m := t.main
	opts := experiments.DefaultOptions()
	opts.Store = f.store
	settle := func(l *Lane, _ int, r sweep.Result) {
		l.Time("store.put", layerStore, func() { f.store.Put(r) })
	}
	// call runs one experiment; ext-cache's cells come from private
	// cache-level models outside the registry, so the traced run cannot
	// drive them and its call is the named remainder.
	call := func(e experiment, o experiments.Options) experimentOut {
		name, layer := "experiments.call", layerExperiments
		if e.name == "ext-cache" {
			name, layer = "ext-cache.private-models", layerNone
		}
		var out experimentOut
		m.Time(name, layer, func() { out = e.run(o) })
		return out
	}

	var text strings.Builder
	outs := make([]experimentOut, len(allExperiments))
	for i, e := range allExperiments {
		m.Begin("experiments."+e.name, layerExperiments)
		if keys := f.added[i]; len(keys) > 0 {
			var jobs []sweep.Job
			var plans []*plan
			m.Time("sweep.plan", layerSweep, func() {
				for _, k := range keys {
					jobs = append(jobs, jobFromKey(k))
				}
				plans = planShards(jobs)
			})
			if err := t.runShards(plans, jobs, settle); err != nil {
				m.End()
				return cold, cached, err
			}
		}
		outs[i] = call(e, opts)
		m.Time("report.render", layerReport, func() { text.WriteString(outs[i].text()) })
		m.End()
	}
	fmt.Printf("# figures: the untraced cold phase ran %d shards, the traced one %d\n", f.coldShards, len(t.c.shardMs))
	var figs []byte
	m.Time("report.render", layerReport, func() { figs = renderFigures(outs) })
	start := time.Now()
	m.Time("store.save", layerStore, func() { err = f.store.Save() })
	st.saveMs = since(start) * 1e3
	if err != nil {
		return cold, cached, err
	}
	st.segWrites = f.store.SegmentWrites()
	st.bytesWritten = storeBytes(f.path)
	cold = phase{collect: selectAll(f.store), rendered: []byte(text.String()), figures: figs}

	var s *sweep.Store
	start = time.Now()
	m.Time("store.open", layerStore, func() { s, err = sweep.OpenStore(f.path) })
	st.openMs = since(start) * 1e3
	if err != nil {
		return cold, cached, err
	}
	if err := getAll(m, s, st); err != nil {
		return cold, cached, err
	}
	opts.Store = s
	text.Reset()
	for i, e := range allExperiments {
		m.Begin("experiments.cached", layerExperiments)
		outs[i] = call(e, opts)
		m.Time("report.render", layerReport, func() { text.WriteString(outs[i].text()) })
		m.End()
	}
	m.Time("report.render", layerReport, func() { figs = renderFigures(outs) })
	sel, err := timedSelect(m, s, st)
	st.segReads = s.SegmentReads()
	cached = phase{collect: func() ([]sweep.Result, error) { return sel, nil },
		rendered: []byte(text.String()), figures: figs}
	return cold, cached, err
}

// getAll reads every cell of s through Store.Get, timed per call in
// aggregate.
func getAll(m *Lane, s *sweep.Store, st *storeTimes) error {
	keys := s.IndexKeys()
	hashes := make([]string, len(keys))
	for i, k := range keys {
		hashes[i] = k.Hash()
	}
	var err error
	start := time.Now()
	m.Time("store.get", layerStore, func() {
		for _, h := range hashes {
			if _, _, err = s.Get(h); err != nil {
				return
			}
		}
	})
	st.gets += len(hashes)
	st.getNs += int64(time.Since(start))
	return err
}

func timedSelect(m *Lane, s *sweep.Store, st *storeTimes) ([]sweep.Result, error) {
	var sel []sweep.Result
	var err error
	start := time.Now()
	m.Time("store.select", layerStore, func() { sel, err = sweep.Filter{}.Select(s) })
	st.selectMs = since(start) * 1e3
	return sel, err
}

// --- grids -------------------------------------------------------------

// gridRefs is every grid cell's reference budget (tlbsweep's default).
const gridRefs = 1_000_000

// gridMechs are the nine default kinds of the grids, at the operating
// points experiments ext-modern uses (STMS's history is architecturally
// off-chip, hence 16K rows).
var gridMechs = []sweep.Mech{
	{Kind: "none"},
	{Kind: "SP"},
	{Kind: "ASP", Rows: 256, Ways: 1},
	{Kind: "MP", Rows: 256, Ways: 1, Slots: 2},
	{Kind: "RP"},
	{Kind: "DP", Rows: 256, Ways: 1, Slots: 2},
	{Kind: "STMS", Rows: 16384, Ways: 1, Slots: 2},
	{Kind: "MASP", Rows: 256, Ways: 1, Slots: 2},
	{Kind: "SBFP"},
}

// streamSeed derives one stream seed per source from the benchmark seed
// and the source name, so all nine cells of a source keep sharing one
// stream (one shard). Seed 0 keeps the models' paper-calibrated streams.
func streamSeed(base uint64, name string) uint64 {
	if base == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	x := base ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// gridRun is a grid of every registry workload × gridMechs: from the
// synthetic generators (grid-synth) or from v2 traces of the same seeded
// streams recorded during set-up (grid-trace).
type gridRun struct {
	seed    uint64
	traces  bool
	workers int

	names      []string
	sources    []sweep.Source
	declared   []sweep.Job
	path       string
	store      *sweep.Store
	traceBytes int64
}

func (g *gridRun) setup(dir string) error {
	if g.names == nil {
		g.names = workload.Names()
	}
	g.sources = make([]sweep.Source, len(g.names))
	if g.traces {
		if err := g.record(filepath.Join(dir, "traces")); err != nil {
			return err
		}
	} else {
		for i, n := range g.names {
			g.sources[i] = sweep.WorkloadSource(n)
		}
	}
	jobs, err := g.declare()
	if err != nil {
		return err
	}
	g.declared = jobs
	return g.fresh(dir)
}

func (g *gridRun) fresh(dir string) error {
	g.path = filepath.Join(dir, "grid.json")
	s, err := sweep.OpenStore(g.path)
	g.store = s
	return err
}

// record writes one v2 trace per workload, on the worker count the
// runner uses, then digests each into its trace source (serially, as
// tlbsweep -trace does).
func (g *gridRun) record(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	paths := make([]string, len(g.names))
	errs := make([]error, len(g.names))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				paths[i] = filepath.Join(dir, g.names[i]+".trc")
				errs[i] = recordTrace(paths[i], g.names[i], streamSeed(g.seed, g.names[i]))
			}
		}()
	}
	for i := range g.names {
		work <- i
	}
	close(work)
	wg.Wait()
	g.traceBytes = 0
	for i, p := range paths {
		if errs[i] != nil {
			return errs[i]
		}
		src, err := sweep.TraceSource(p)
		if err != nil {
			return err
		}
		g.sources[i] = src
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		g.traceBytes += fi.Size()
	}
	return nil
}

func recordTrace(path, name string, seed uint64) error {
	w, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seed != 0 {
		w.Seed = seed
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw, err := trace.NewBlockWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := workload.GenerateTo(w, gridRefs, bw); err != nil {
		f.Close()
		return fmt.Errorf("recording %s: %w", path, err)
	}
	if err := bw.FinishCount(f); err != nil {
		f.Close()
		return fmt.Errorf("recording %s: %w", path, err)
	}
	// Flushed here, the recording's writeback cannot land in a timed phase.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("recording %s: %w", path, err)
	}
	return f.Close()
}

// declare enumerates and validates the grid, sources outermost, then the
// mechanisms, as sweep.Grid.Jobs does (which cannot be used: its Seed
// derives a seed per cell, which would split every shard).
func (g *gridRun) declare() ([]sweep.Job, error) {
	jobs := make([]sweep.Job, 0, len(g.sources)*len(gridMechs))
	seen := map[string]bool{}
	for i, src := range g.sources {
		var seed uint64
		if !src.IsTrace() {
			seed = streamSeed(g.seed, g.names[i])
		}
		for _, m := range gridMechs {
			j := sweep.Job{Source: src, Mech: m, Config: sim.Default(), Refs: gridRefs, Seed: seed}
			if err := j.Validate(); err != nil {
				return nil, err
			}
			if h := j.Key().Hash(); seen[h] {
				return nil, fmt.Errorf("grid declares cell %s twice", h)
			} else {
				seen[h] = true
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// cellLabels maps each grid cell's key hash to "workload|mech", the name
// the seed-0 pins and the cross-grid check use.
func (g *gridRun) cellLabels() map[string]string {
	out := map[string]string{}
	for i, j := range g.declared {
		out[j.Key().Hash()] = g.names[i/len(gridMechs)] + "|" + j.Mech.Label()
	}
	return out
}

func (g *gridRun) cold() (phase, error) {
	r := sweep.Runner{Store: g.store, Workers: g.workers}
	res, _, err := r.Run(g.declared)
	if err != nil {
		return phase{}, err
	}
	if err := g.store.Save(); err != nil {
		return phase{}, err
	}
	text := sweep.Table(res).String()
	return phase{collect: func() ([]sweep.Result, error) { return res, nil }, rendered: []byte(text)}, nil
}

func (g *gridRun) cached() (phase, error) {
	s, err := sweep.OpenStore(g.path)
	if err != nil {
		return phase{}, err
	}
	r := sweep.Runner{Store: s, Workers: g.workers}
	res, sum, err := r.Run(g.declared)
	if err != nil {
		return phase{}, err
	}
	if sum.Cached != sum.Total {
		return phase{}, fmt.Errorf("cached phase re-ran %d of %d cells", sum.Ran, sum.Total)
	}
	text := sweep.Table(res).String()
	sel, err := sweep.Filter{}.Select(s)
	if err != nil {
		return phase{}, err
	}
	return phase{collect: func() ([]sweep.Result, error) { return append(res, sel...), nil }, rendered: []byte(text)}, nil
}

func (g *gridRun) cellRefs() uint64 { return uint64(len(g.declared)) * gridRefs }

func (g *gridRun) traced(t *tracer, st *storeTimes) (cold, cached phase, err error) {
	m := t.main
	jobs := g.declared
	hashes := make([]string, len(jobs))
	// hash is the key hashing sweep.Runner.Run does before anything else.
	hash := func() {
		for i, j := range jobs {
			hashes[i] = j.Key().Hash()
		}
	}
	m.Time("sweep.plan", layerSweep, hash)
	m.Time("store.get", layerStore, func() {
		for _, h := range hashes {
			if _, _, err = g.store.Get(h); err != nil {
				return
			}
		}
	})
	if err != nil {
		return cold, cached, err
	}
	for _, src := range g.sources {
		if !src.IsTrace() {
			continue
		}
		var d string
		m.Time("trace.digest", layerTrace, func() { d, err = trace.DigestFile(src.TracePath) })
		if err != nil {
			return cold, cached, err
		}
		if d != src.TraceSHA256 {
			return cold, cached, fmt.Errorf("trace %s changed since set-up", src.TracePath)
		}
	}
	var plans []*plan
	m.Time("sweep.plan", layerSweep, func() { plans = planShards(jobs) })
	res := make([]sweep.Result, len(jobs))
	settle := func(l *Lane, idx int, r sweep.Result) {
		res[idx] = r
		l.Time("store.put", layerStore, func() { g.store.Put(r) })
	}
	if err := t.runShards(plans, jobs, settle); err != nil {
		return cold, cached, err
	}
	start := time.Now()
	m.Time("store.save", layerStore, func() { err = g.store.Save() })
	st.saveMs = since(start) * 1e3
	if err != nil {
		return cold, cached, err
	}
	st.segWrites = g.store.SegmentWrites()
	st.bytesWritten = storeBytes(g.path)
	var text string
	m.Time("sweep.emit", layerSweep, func() { text = sweep.Table(res).String() })
	cold = phase{collect: func() ([]sweep.Result, error) { return res, nil }, rendered: []byte(text)}

	var s *sweep.Store
	start = time.Now()
	m.Time("store.open", layerStore, func() { s, err = sweep.OpenStore(g.path) })
	st.openMs = since(start) * 1e3
	if err != nil {
		return cold, cached, err
	}
	m.Time("sweep.plan", layerSweep, hash)
	cres := make([]sweep.Result, len(hashes))
	start = time.Now()
	m.Time("store.get", layerStore, func() {
		for i, h := range hashes {
			r, ok, gerr := s.Get(h)
			if gerr != nil || !ok {
				err = fmt.Errorf("cached phase: cell %s missing from the store (%v)", h, gerr)
				return
			}
			cres[i] = r
		}
	})
	st.gets += len(hashes)
	st.getNs += int64(time.Since(start))
	if err != nil {
		return cold, cached, err
	}
	m.Time("sweep.emit", layerSweep, func() { text = sweep.Table(cres).String() })
	sel, err := timedSelect(m, s, st)
	st.segReads = s.SegmentReads()
	cached = phase{collect: func() ([]sweep.Result, error) { return append(cres, sel...), nil }, rendered: []byte(text)}
	return cold, cached, err
}
