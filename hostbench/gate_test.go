package main

import (
	"strings"
	"testing"

	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

// oneSourceGrid runs the seed-0 grid cells of a single workload at the
// benchmark's size and returns them with their labels.
func oneSourceGrid(t *testing.T, name string) ([]sweep.Result, map[string]string) {
	t.Helper()
	g := &gridRun{workers: 1, names: []string{name}, sources: []sweep.Source{sweep.WorkloadSource(name)}}
	jobs, err := g.declare()
	if err != nil {
		t.Fatal(err)
	}
	g.declared = jobs
	res, _, err := (&sweep.Runner{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, g.cellLabels()
}

func corrupt(rs []sweep.Result, i int) []sweep.Result {
	out := append([]sweep.Result(nil), rs...)
	out[i].Stats.Misses++
	return out
}

// TestGateCatchesCorruptedCell corrupts one cell's stats and checks that
// the gate counts it as failed: against the reference cells of an earlier
// phase, and against the seed-0 pins.
func TestGateCatchesCorruptedCell(t *testing.T) {
	rs, labels := oneSourceGrid(t, "gzip")

	g := &gate{pinCell: pinGridCells(func() map[string]string { return labels })}
	if err := g.cells("cold", rs); err != nil {
		t.Fatal(err)
	}
	if g.failed != 0 {
		t.Fatalf("pinned seed-0 cells fail the gate: %v", g.problems)
	}
	if err := g.cells("cached", rs); err != nil {
		t.Fatal(err)
	}
	if g.failed != 0 {
		t.Fatalf("identical cells fail the gate: %v", g.problems)
	}
	if err := g.cells("cached", corrupt(rs, 3)); err != nil {
		t.Fatal(err)
	}
	if g.failed != 1 || !strings.Contains(g.problems[0], "differs from the reference") {
		t.Fatalf("corrupted cell: failed=%d problems=%v, want 1 reference mismatch", g.failed, g.problems)
	}
	if err := g.cells("cached", rs[1:]); err != nil {
		t.Fatal(err)
	}
	if g.failed != 2 {
		t.Fatalf("missing cell: failed=%d, want it counted", g.failed)
	}

	pinned := &gate{pinCell: pinGridCells(func() map[string]string { return labels })}
	if err := pinned.cells("cold", corrupt(rs, 5)); err != nil {
		t.Fatal(err)
	}
	if pinned.failed != 1 || !strings.Contains(pinned.problems[0], "pinned") {
		t.Fatalf("corrupted reference cell: failed=%d problems=%v, want 1 pin mismatch", pinned.failed, pinned.problems)
	}
}

// TestGateCatchesTraceMismatch checks the grid-trace against grid-synth
// comparison, which matches cells by label rather than by key.
func TestGateCatchesTraceMismatch(t *testing.T) {
	rs, labels := oneSourceGrid(t, "gzip")
	g := &gate{}
	g.sameStats("trace vs synth", rs, labels, rs, labels)
	if g.failed != 0 {
		t.Fatalf("identical grids differ: %v", g.problems)
	}
	g.sameStats("trace vs synth", corrupt(rs, 0), labels, rs, labels)
	if g.failed != 1 {
		t.Fatalf("corrupted cell: failed=%d, want 1", g.failed)
	}
}

// TestGateCatchesRenderingChange checks the rendered-output comparison and
// the figures pin.
func TestGateCatchesRenderingChange(t *testing.T) {
	g := &gate{pinText: pinFigures}
	g.rendered("cold", []byte("not the experiments output"), nil)
	if g.failed != 1 {
		t.Fatalf("unpinned text passed the figures pin")
	}
	g.rendered("cached", []byte("not the experiments output"), nil)
	g.rendered("cached", []byte("something else"), nil)
	if g.failed != 2 {
		t.Fatalf("failed=%d, want the changed rendering counted once", g.failed)
	}
}

// TestStreamSeedKeepsShards checks that every cell of a source gets the
// same stream seed (so its nine cells stay one shard) and that seeds
// differ across sources.
func TestStreamSeedKeepsShards(t *testing.T) {
	g := &gridRun{seed: 7, names: workload.Names()}
	g.sources = make([]sweep.Source, len(g.names))
	for i, n := range g.names {
		g.sources[i] = sweep.WorkloadSource(n)
	}
	jobs, err := g.declare()
	if err != nil {
		t.Fatal(err)
	}
	if plans := planShards(jobs); len(plans) != len(g.names) {
		t.Fatalf("%d shards for %d sources", len(plans), len(g.names))
	}
	seeds := map[uint64]bool{}
	for _, n := range g.names {
		seeds[streamSeed(7, n)] = true
	}
	if len(seeds) != len(g.names) || streamSeed(0, "gzip") != 0 {
		t.Fatalf("stream seeds: %d distinct for %d sources", len(seeds), len(g.names))
	}
}

// TestTracedRunMatchesRunner drives a small grid, from generators and from
// recorded traces, through the traced run and checks every cell against
// sweep.Runner's.
func TestTracedRunMatchesRunner(t *testing.T) {
	for _, traces := range []bool{false, true} {
		g := &gridRun{seed: 3, traces: traces, workers: 2, names: []string{"gzip", "mcf"}}
		if err := g.setup(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		want, _, err := (&sweep.Runner{Workers: 2}).Run(g.declared)
		if err != nil {
			t.Fatal(err)
		}
		gt := &gate{}
		if err := gt.cells("runner", want); err != nil {
			t.Fatal(err)
		}
		tr := newTracer(2)
		var st storeTimes
		cold, cached, err := g.traced(tr, &st)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []phase{cold, cached} {
			if err := gt.phase("traced", p); err != nil {
				t.Fatal(err)
			}
		}
		if gt.failed != 0 {
			t.Fatalf("traces=%v: %v", traces, gt.problems)
		}
		a := accountFor(tr.rec.Spans())
		var sum float64
		for _, l := range layers {
			sum += a.Self[l]
		}
		if d := a.Busy - sum - a.Unaccounted; d > 1e-6 || d < -1e-6 {
			t.Fatalf("layer self times %.6f + unaccounted %.6f != busy %.6f", sum, a.Unaccounted, a.Busy)
		}
	}
}
