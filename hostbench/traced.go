package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tlbprefetch/internal/sweep"
)

// tracedRun runs one more iteration — a fresh store, then the cold and
// cached phases with every layer call timed — checks its cells against the
// reference, writes its spans, and returns the per-layer metrics.
// untraced is the untraced cold plus one cached phase (medians), the
// baseline of trace_overhead_s.
func tracedRun(name string, seed uint64, w benchWorkload, g *gate, dir, out string, hdr Header, untraced float64) (map[string]metric, error) {
	itDir := filepath.Join(dir, "traced")
	if err := w.fresh(itDir); err != nil {
		return nil, err
	}
	settle()
	t := newTracer(hdr.GOMAXPROCS)
	var st storeTimes
	t.main.Begin("traced", layerNone)
	cold, cached, err := w.traced(t, &st)
	t.main.End()
	if err != nil {
		return nil, err
	}
	if err := g.phase("traced cold phase", cold); err != nil {
		return nil, err
	}
	if err := g.phase("traced cached phase", cached); err != nil {
		return nil, err
	}
	spans := t.rec.Spans()
	acct := accountFor(spans)
	spansDir := filepath.Join(out, "spans")
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spansDir, name+".json")
	if err := writeSpans(path, hdr, name, seed, spans); err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %d written to %s\n", len(spans), path)
	fmt.Printf("# traced run: wall %.3f s, busy %.3f lane-s on %d workers\n", acct.Wall, acct.Busy, hdr.GOMAXPROCS)
	var sum float64
	for _, l := range layers {
		fmt.Printf("#   self %-12s %9.3f s  %5.1f%% of busy\n", l, acct.Self[l], 100*acct.Self[l]/acct.Busy)
		sum += acct.Self[l]
	}
	for n, v := range acct.Remainder {
		fmt.Printf("#   unaccounted %-30s %9.3f s  %5.1f%% of busy\n", n, v, 100*v/acct.Busy)
	}
	fmt.Printf("#   layers %.3f s + unaccounted %.3f s = %.3f s busy\n", sum, acct.Unaccounted, sum+acct.Unaccounted)

	m := layerMetrics(t, acct, st, w)
	m["trace_overhead_s"] = metric{acct.Wall - untraced, "s"}
	return m, os.RemoveAll(itDir)
}

// shardTail is the highest percentile of the shard durations with at least
// ten shards beyond it, and that percentile.
func shardTail(ms []float64) (value, pct float64) {
	n := len(ms)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced run's account and counters into the
// per-layer metrics. Every name is reported on every workload (0 where a
// workload does not touch the layer), so the list is fixed.
func layerMetrics(t *tracer, a Account, st storeTimes, w benchWorkload) map[string]metric {
	c := t.c
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var genRefs uint64
	var genNs int64
	var slowest float64
	for app, r := range c.genRefs {
		genRefs += r
		genNs += c.genNs[app]
		if v := ratio(float64(c.genNs[app]), float64(r)); v > slowest {
			slowest = v
		}
	}
	put("workload.gen_s", a.Self[layerWorkload], "s")
	put("workload.gen_ns_per_ref", ratio(float64(genNs), float64(genRefs)), "ns")
	put("workload.gen_ns_per_ref.max", slowest, "ns")
	put("workload.refs", float64(genRefs), "count")

	var traceBytes float64
	var recorded uint64
	if g, ok := w.(*gridRun); ok && g.traces {
		traceBytes, recorded = float64(g.traceBytes), uint64(len(g.names))*gridRefs
	}
	put("trace.digest_s", a.ByName["trace.digest"], "s")
	put("trace.decode_s", a.ByName["trace.decode"], "s")
	put("trace.decode_ns_per_ref", ratio(a.ByName["trace.decode"]*1e9, float64(c.decodeRefs)), "ns")
	put("trace.bytes_per_ref", ratio(traceBytes, float64(recorded)), "B")

	put("sim.self_s", a.Self[layerSim], "s")
	put("sim.ns_per_ref", ratio(a.ByName["sim.group"]*1e9, float64(c.groupRefs)), "ns")
	put("sim.timing_ns_per_ref", ratio(a.ByName["sim.timing"]*1e9, float64(c.timingRefs)), "ns")
	put("sim.members_per_stream", ratio(float64(c.members), float64(c.streams)), "count")
	put("sim.miss_ratio", ratio(float64(c.misses), float64(c.refs)), "ratio")
	put("tlb.probe_ns_per_ref", t.probeTLB(), "ns")

	var calls, preds int64
	for _, k := range sweep.Kinds() {
		put("prefetch.onmiss_ns."+k, ratio(c.pfNs[k], float64(c.pfCalls[k])), "ns")
		calls += c.pfCalls[k]
		preds += c.pfPreds[k]
	}
	put("prefetch.self_s", a.Self[layerPrefetch], "s")
	put("prefetch.calls", float64(calls), "count")
	put("prefetch.predictions_per_miss", ratio(float64(preds), float64(calls)), "count")
	put("prefetch.useful_ratio", ratio(float64(c.bufferHits), float64(c.issued)), "ratio")

	put("multiprog.self_s", a.Self[layerMultiprog], "s")
	put("multiprog.ns_per_ref", ratio(a.ByName["multiprog.exec"]*1e9, float64(c.mixRefs)), "ns")
	put("multiprog.switches", float64(c.switches), "count")

	tail, pct := shardTail(c.shardMs)
	put("sweep.self_s", a.Self[layerSweep], "s")
	put("sweep.shards", float64(len(c.shardMs)), "count")
	put("sweep.shard_p50_ms", percentile(c.shardMs, 50), "ms")
	put("sweep.shard_tail_ms", tail, "ms")
	put("sweep.shard_tail_pct", pct, "%")
	put("sweep.busy_cores", ratio(a.Busy, a.Wall), "cores")
	put("sweep.serial_s", a.Wall-a.Dur["sweep.run"], "s")

	put("store.self_s", a.Self[layerStore], "s")
	put("store.open_ms", st.openMs, "ms")
	put("store.get_us", ratio(float64(st.getNs)/1e3, float64(st.gets)), "us")
	put("store.select_ms", st.selectMs, "ms")
	put("store.save_ms", st.saveMs, "ms")
	put("store.segment_reads", float64(st.segReads), "count")
	put("store.segment_writes", float64(st.segWrites), "count")
	put("store.bytes_written", float64(st.bytesWritten), "B")

	put("experiments.self_s", a.Self[layerExperiments], "s")
	for _, e := range allExperiments {
		put("experiments."+e.name+"_s", a.Dur["experiments."+e.name], "s")
	}
	put("report.render_ms", a.Self[layerReport]*1e3, "ms")

	put("busy_s", a.Busy, "s")
	put("traced_wall_s", a.Wall, "s")
	put("unaccounted_s", a.Unaccounted, "s")
	return m
}
