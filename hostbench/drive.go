package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"tlbprefetch/internal/multiprog"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/sim"
	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

// The traced run drives the layers itself, the way sweep.Runner does, so
// that every call into a layer can be timed from outside: it groups cells
// into the runner's shards, generates or decodes each shard's stream in
// chunks, and feeds the chunks to a sim.Group (or the cycle model, or a
// multiprog.Exec) built from the same sweep.Jobs. Timing stops at chunk
// boundaries and OnMiss calls; nothing is timed per reference.

// chunk is sweep.Runner's streaming chunk size, kept so the traced run
// does the same work per call.
const chunk = 4096

// timedPF wraps a member's mechanism and times a random eighth of its
// OnMiss calls: timing every call would cost more than many mechanisms'
// OnMiss itself. Name is forwarded: sim.TimingSimulator recognizes RP by
// it.
type timedPF struct {
	inner     prefetch.Prefetcher
	kind      string
	clock     float64 // ns the timer adds to one timed call (see clockCost)
	rng       uint64
	calls     int64
	preds     int64
	sampled   int64
	sampledNs int64
}

// sampleMask selects the timed calls: one in sampleMask+1 on average.
const sampleMask = 7

func (p *timedPF) Name() string { return p.inner.Name() }
func (p *timedPF) Reset()       { p.inner.Reset() }

func (p *timedPF) OnMiss(ev prefetch.Event, dst []uint64) prefetch.Action {
	p.calls++
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	if p.rng&sampleMask != 0 {
		act := p.inner.OnMiss(ev, dst)
		p.preds += int64(len(act.Prefetches))
		return act
	}
	t := time.Now()
	act := p.inner.OnMiss(ev, dst)
	p.sampledNs += int64(time.Since(t))
	p.sampled++
	p.preds += int64(len(act.Prefetches))
	return act
}

// perCall is the mean host time of one OnMiss call so far, net of the
// timer's own cost.
func (p *timedPF) perCall() float64 {
	if p.sampled == 0 {
		return 0
	}
	return max(float64(p.sampledNs)/float64(p.sampled)-p.clock, 0)
}

// clockCost measures what timing a call adds: the median timed duration of
// a no-op OnMiss.
func clockCost() float64 {
	var nop prefetch.Prefetcher = prefetch.Nop{}
	ds := make([]float64, 20001)
	for i := range ds {
		t := time.Now()
		nop.OnMiss(prefetch.Event{}, nil)
		ds[i] = float64(time.Since(t))
	}
	return percentile(ds, 50)
}

// pfGroup is the wrapped mechanisms of one shard.
type pfGroup []*timedPF

// mark records the OnMiss calls made so far, per member, into into.
func (g pfGroup) mark(into []int64) []int64 {
	into = into[:0]
	for _, p := range g {
		into = append(into, p.calls)
	}
	return into
}

// since estimates the host time of the calls made since mark.
func (g pfGroup) since(mark []int64) int64 {
	var ns float64
	for i, p := range g {
		ns += float64(p.calls-mark[i]) * p.perCall()
	}
	return int64(ns)
}

func (t *tracer) wrap(m sweep.Mech) *timedPF {
	pf := m.Build()
	if pf == nil {
		pf = prefetch.Nop{}
	}
	t.mu.Lock()
	t.seq++
	seed := t.seq*0x9e3779b97f4a7c15 | 1
	t.mu.Unlock()
	return &timedPF{inner: pf, kind: m.Kind, clock: t.clock, rng: seed}
}

// counts are the traced run's work counters, merged from every worker.
type counts struct {
	genRefs    map[string]uint64 // per synthetic source name
	genNs      map[string]int64
	decodeRefs uint64

	groupRefs  uint64 // stream references delivered to functional Groups
	timingRefs uint64 // references delivered to each timing simulator, summed
	streams    int    // functional and timing shards
	members    int    // cells in those shards
	mixRefs    uint64 // interleaved references, summed over mix execs
	switches   uint64

	pfNs               map[string]float64 // per mechanism kind, estimated
	pfCalls, pfPreds   map[string]int64
	refs, misses       uint64 // functional cells' counters
	bufferHits, issued uint64

	shardMs []float64
}

func newCounts() *counts {
	return &counts{genRefs: map[string]uint64{}, genNs: map[string]int64{},
		pfNs: map[string]float64{}, pfCalls: map[string]int64{}, pfPreds: map[string]int64{}}
}

// tracer holds one traced run: the recorder, the main goroutine's lane and
// the merged counters.
type tracer struct {
	rec     *Recorder
	main    *Lane
	workers int
	mu      sync.Mutex // guards c, probe and seq
	c       *counts
	// probe samples the first references of a few shards for the
	// standalone TLB probe measurement (see probeTLB).
	probe []*probeSample
	clock float64 // see clockCost
	seq   uint64  // seeds the wrappers' sampling
}

type probeSample struct {
	cfg   tlb.Config
	shift uint
	refs  []trace.Ref
}

const (
	probeShards = 8
	probeRefs   = 1 << 18
)

func newTracer(workers int) *tracer {
	rec := NewRecorder()
	return &tracer{rec: rec, main: rec.Lane(-1), workers: workers, c: newCounts(), clock: clockCost()}
}

// plan is one shard: cells that share a stream and a TLB frontend, grouped
// by the same fields sweep.Runner's shard key uses.
type plan struct {
	id    int
	jobs  []int // indices into the job slice
	first sweep.Job
}

func canonicalWays(c tlb.Config) int {
	if c.Ways == c.Entries {
		return 0
	}
	return c.Ways
}

func tlbConfig(entries, ways int) tlb.Config { return tlb.Config{Entries: entries, Ways: ways} }

// planShards groups jobs into shards in first-seen order.
func planShards(jobs []sweep.Job) []*plan {
	byKey := map[string]*plan{}
	var out []*plan
	for i, j := range jobs {
		var k string
		// The buffer size is not part of sweep.Runner's shard key, but the
		// experiments run each buffer-size variant in its own Runner.Run
		// call (runPanelVaryingSim), so it splits the traced run's shards
		// the same way.
		geo := fmt.Sprintf("%d/%d/%d/%d/%d", j.Config.TLB.Entries, canonicalWays(j.Config.TLB), j.Config.PageShift, j.Refs, j.Config.BufferEntries)
		if j.Mix != nil {
			m := j.Mix.Canonical()
			k = fmt.Sprintf("mix|%v|%d|%s", m.Sources, m.Quantum, geo)
		} else {
			k = fmt.Sprintf("src|%v|%s|%d|%d|%t", j.Source.Canonical(), geo, j.Warmup, j.Seed, j.Timing != nil)
		}
		p, ok := byKey[k]
		if !ok {
			p = &plan{id: len(out), first: j}
			byKey[k] = p
			out = append(out, p)
		}
		p.jobs = append(p.jobs, i)
	}
	return out
}

// runShards drives the shards on t.workers goroutines, each with its own
// lane; the main lane waits in a "sweep.run" span. settle is called once
// per finished cell, from the worker that ran it.
func (t *tracer) runShards(plans []*plan, jobs []sweep.Job, settle func(*Lane, int, sweep.Result)) error {
	wait := t.main.Begin("sweep.run", layerWait)
	defer t.main.End()
	work := make(chan *plan)
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	n := t.workers
	if n > len(plans) {
		n = len(plans)
	}
	for w := 0; w < n; w++ {
		lane := t.rec.Lane(wait)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				lane.SetShard(p.id)
				lane.Begin("sweep.shard", layerSweep)
				start := time.Now()
				errs[p.id] = t.runShard(lane, p, jobs, settle)
				ms := float64(time.Since(start)) / 1e6
				lane.End()
				lane.SetShard(-1)
				t.mu.Lock()
				t.c.shardMs = append(t.c.shardMs, ms)
				t.mu.Unlock()
			}
		}()
	}
	for _, p := range plans {
		work <- p
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) runShard(l *Lane, p *plan, jobs []sweep.Job, settle func(*Lane, int, sweep.Result)) error {
	switch {
	case p.first.Mix != nil:
		return t.runMix(l, p, jobs, settle)
	case p.first.Timing != nil:
		return t.runTiming(l, p, jobs, settle)
	}
	g := sim.NewGroup()
	pfs := make(pfGroup, len(p.jobs))
	for i, idx := range p.jobs {
		pfs[i] = t.wrap(jobs[idx].Mech)
		g.Add(sim.New(jobs[idx].Config, pfs[i]))
	}
	var mark []int64
	feed := func(refs []trace.Ref) {
		l.Begin("sim.group", layerSim)
		mark = pfs.mark(mark)
		g.RefBatch(refs)
		l.Agg("prefetch.onmiss", layerPrefetch, pfs.since(mark))
		l.End()
	}
	warm := p.first.Warmup
	var seen uint64
	err := t.stream(l, p, warm+p.first.Refs, func(refs []trace.Ref) {
		if seen < warm && seen+uint64(len(refs)) >= warm {
			k := warm - seen
			feed(refs[:k])
			for _, s := range g.Members() {
				s.ResetStats()
			}
			feed(refs[k:])
		} else {
			feed(refs)
		}
		seen += uint64(len(refs))
	})
	if err != nil {
		return err
	}
	var local counts
	for mi, s := range g.Members() {
		idx := p.jobs[mi]
		st := s.Stats()
		local.refs += st.Refs
		local.misses += st.Misses
		local.bufferHits += st.BufferHits
		local.issued += st.PrefetchesIssued
		settle(l, idx, sweep.Result{Key: jobs[idx].Key(), Stats: st})
	}
	t.mu.Lock()
	t.c.groupRefs += warm + p.first.Refs
	t.c.streams++
	t.c.members += len(p.jobs)
	t.c.refs += local.refs
	t.c.misses += local.misses
	t.c.bufferHits += local.bufferHits
	t.c.issued += local.issued
	t.mu.Unlock()
	t.addPF(pfs)
	return nil
}

func (t *tracer) addPF(pfs pfGroup) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pf := range pfs {
		t.c.pfNs[pf.kind] += pf.perCall() * float64(pf.calls)
		t.c.pfCalls[pf.kind] += pf.calls
		t.c.pfPreds[pf.kind] += pf.preds
	}
}

// stream delivers the shard's first total references in chunks, timing
// generation ("workload.gen") or decode ("trace.decode") per chunk.
func (t *tracer) stream(l *Lane, p *plan, total uint64, perBatch func([]trace.Ref)) error {
	var buf [chunk]trace.Ref
	src := p.first.Source
	sample := t.takeSample(p)
	deliver := func(refs []trace.Ref) {
		if sample != nil && len(sample.refs) < probeRefs {
			sample.refs = append(sample.refs, refs...)
		}
		perBatch(refs)
	}
	if !src.IsTrace() {
		w, ok := workload.ByName(src.Workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", src.Workload)
		}
		if p.first.Seed != 0 {
			w.Seed = p.first.Seed
		}
		var ns int64
		n := 0
		start := time.Now()
		l.Begin("workload.gen", layerWorkload)
		workload.Generate(w, total, func(pc, vaddr uint64) bool {
			buf[n] = trace.Ref{PC: pc, VAddr: vaddr}
			n++
			if n == chunk {
				l.End()
				ns += int64(time.Since(start))
				deliver(buf[:])
				n = 0
				start = time.Now()
				l.Begin("workload.gen", layerWorkload)
			}
			return true
		})
		l.End()
		ns += int64(time.Since(start))
		if n > 0 {
			deliver(buf[:n])
		}
		t.mu.Lock()
		t.c.genRefs[src.Workload] += total
		t.c.genNs[src.Workload] += ns
		t.mu.Unlock()
		return nil
	}
	tr, closer, err := trace.OpenFile(src.TracePath)
	if err != nil {
		return err
	}
	defer closer.Close()
	b := trace.AsBatch(tr)
	var n uint64
	for n < total {
		want := uint64(chunk)
		if rem := total - n; rem < want {
			want = rem
		}
		l.Begin("trace.decode", layerTrace)
		k, err := b.ReadBatch(buf[:want])
		l.End()
		if err == io.EOF {
			return fmt.Errorf("trace %s ends after %d of %d references", src.Label(), n, total)
		}
		if err != nil {
			return err
		}
		deliver(buf[:k])
		n += uint64(k)
	}
	t.mu.Lock()
	t.c.decodeRefs += total
	t.mu.Unlock()
	return nil
}

// takeSample reserves a probe sample for the first probeShards
// single-source shards the run drives.
func (t *tracer) takeSample(p *plan) *probeSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.probe) >= probeShards {
		return nil
	}
	s := &probeSample{cfg: p.first.Config.TLB, shift: p.first.Config.PageShift}
	t.probe = append(t.probe, s)
	return s
}

// runTiming drives cycle-model cells: every member owns its clock, so each
// chunk is walked once per member, as sweep.Runner does.
func (t *tracer) runTiming(l *Lane, p *plan, jobs []sweep.Job, settle func(*Lane, int, sweep.Result)) error {
	sims := make([]*sim.TimingSimulator, len(p.jobs))
	pfs := make(pfGroup, len(p.jobs))
	for i, idx := range p.jobs {
		j := jobs[idx]
		pfs[i] = t.wrap(j.Mech)
		sims[i] = sim.NewTiming(j.Timing.Config(j.Config), pfs[i])
	}
	var mark []int64
	err := t.stream(l, p, p.first.Refs, func(refs []trace.Ref) {
		for i, s := range sims {
			l.Begin("sim.timing", layerSim)
			mark = pfs[i : i+1].mark(mark)
			for k := range refs {
				s.Ref(refs[k].PC, refs[k].VAddr)
			}
			l.Agg("prefetch.onmiss", layerPrefetch, pfs[i:i+1].since(mark))
			l.End()
		}
	})
	if err != nil {
		return err
	}
	for i, idx := range p.jobs {
		st := sims[i].Stats()
		settle(l, idx, sweep.Result{Key: jobs[idx].Key(), Stats: st.Stats, Timing: &st})
	}
	t.mu.Lock()
	t.c.timingRefs += p.first.Refs * uint64(len(p.jobs))
	t.c.streams++
	t.c.members += len(p.jobs)
	t.mu.Unlock()
	t.addPF(pfs)
	return nil
}

// runMix drives multiprogrammed cells: each member's share is generated up
// front (one "workload.gen" span per member), then the interleaved stream
// feeds every cell's Exec in chunks of "multiprog.exec".
func (t *tracer) runMix(l *Lane, p *plan, jobs []sweep.Job, settle func(*Lane, int, sweep.Result)) error {
	mix := p.first.Mix.Canonical()
	shares := multiprog.Split(p.first.Refs, len(mix.Sources))
	streams := make([]trace.BatchReader, len(mix.Sources))
	for i, src := range mix.Sources {
		if src.IsTrace() {
			return fmt.Errorf("mix member %s: the traced run drives synthetic mix members only", src.Label())
		}
		w, ok := workload.ByName(src.Workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", src.Workload)
		}
		refs := make([]trace.Ref, 0, shares[i])
		start := time.Now()
		l.Time("workload.gen", layerWorkload, func() {
			workload.Generate(w, shares[i], func(pc, vaddr uint64) bool {
				refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
				return true
			})
		})
		ns := int64(time.Since(start))
		streams[i] = trace.NewSliceReader(refs)
		t.mu.Lock()
		t.c.genRefs[src.Workload] += shares[i]
		t.c.genNs[src.Workload] += ns
		t.mu.Unlock()
	}
	execs := make([]*multiprog.Exec, len(p.jobs))
	var pfs pfGroup
	for i, idx := range p.jobs {
		j := jobs[idx]
		m := j.Mix.Canonical()
		pol, err := multiprog.ParsePolicy(m.Policy)
		if err != nil {
			return err
		}
		asid, err := multiprog.ParseASID(m.ASID)
		if err != nil {
			return err
		}
		execs[i] = multiprog.NewExec(j.Config, pol, asid, len(streams), func() prefetch.Prefetcher {
			pf := t.wrap(j.Mech)
			pfs = append(pfs, pf)
			return pf
		})
	}
	var mark []int64
	it := multiprog.NewStreamInterleaver(streams, mix.Quantum)
	last := -1
	var n, switches uint64
	for done := false; !done; {
		l.Begin("multiprog.exec", layerMultiprog)
		mark = pfs.mark(mark)
		for k := 0; k < chunk; k++ {
			proc, pc, vaddr, ok := it.Next()
			if !ok {
				done = true
				break
			}
			if proc != last {
				if last >= 0 {
					switches++
				}
				last = proc
			}
			for _, e := range execs {
				e.Ref(proc, pc, vaddr)
			}
			n++
		}
		l.Agg("prefetch.onmiss", layerPrefetch, pfs.since(mark))
		l.End()
	}
	if err := it.Err(); err != nil {
		return err
	}
	for i, idx := range p.jobs {
		res := execs[i].Results()
		settle(l, idx, sweep.Result{Key: jobs[idx].Key(), Stats: res.Aggregate, Apps: res.Apps})
	}
	t.mu.Lock()
	t.c.mixRefs += n * uint64(len(execs))
	t.c.switches += switches
	t.mu.Unlock()
	t.addPF(pfs)
	return nil
}

// probeTLB measures the canonical TLB probe on its own: the sampled
// references of the first shards replayed through a fresh tlb.TLB of the
// shard's geometry, with the Access/Insert loop sim.Group runs per
// reference. It runs after the traced phases, outside their wall clock.
func (t *tracer) probeTLB() float64 {
	var ns int64
	var refs int
	for _, s := range t.probe {
		tl := tlb.New(s.cfg)
		start := time.Now()
		for i := range s.refs {
			vpn := s.refs[i].VAddr >> s.shift
			if !tl.Access(vpn) {
				tl.Insert(vpn)
			}
		}
		ns += int64(time.Since(start))
		refs += len(s.refs)
	}
	if refs == 0 {
		return 0
	}
	return float64(ns) / float64(refs)
}

// percentile returns the p-th percentile (0..100) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
