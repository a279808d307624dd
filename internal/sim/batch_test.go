package sim

import (
	"bytes"
	"fmt"
	"testing"

	"tlbprefetch/internal/core"
	"tlbprefetch/internal/prefetch"
	"tlbprefetch/internal/tlb"
	"tlbprefetch/internal/trace"
	"tlbprefetch/internal/workload"
)

func batchTestStream(t *testing.T, wname string, n int) []trace.Ref {
	t.Helper()
	w, ok := workload.ByName(wname)
	if !ok {
		t.Fatalf("workload %s missing", wname)
	}
	refs := make([]trace.Ref, 0, n)
	workload.Generate(w, uint64(n), func(pc, vaddr uint64) bool {
		refs = append(refs, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	return refs
}

// handmadeStream returns references whose same-page runs (lengths 1 to 5,
// with the offset and PC varying inside a run) straddle the boundaries of
// every chunking in batchChunkings. It cycles over 40 pages in a scrambled
// order, more than the 32-entry test TLBs hold, so pages are evicted
// and later re-referenced right after a different page.
func handmadeStream(shift uint) []trace.Ref {
	var refs []trace.Ref
	for round := uint64(0); round < 4; round++ {
		for p := uint64(0); p < 40; p++ {
			page := p * 7 % 40
			for k := uint64(0); k <= (p+round)%5; k++ {
				refs = append(refs, trace.Ref{PC: 0x400000 + 4*k, VAddr: page<<shift | 64*k})
			}
		}
	}
	return refs
}

// batchChunkings are the chunk-size cycles the batch tests feed: a ragged
// one with empty chunks, and uniform sizes that cut same-page runs at
// every offset.
var batchChunkings = [][]int{{1, 0, 7, 4096, 333, 65_536}, {1}, {2}, {3}, {4096}}

// batchGeometries are the TLB geometries the batch tests cover: fully
// associative, 2-way and 4-way set-associative.
var batchGeometries = []tlb.Config{{Entries: 32}, {Entries: 32, Ways: 2}, {Entries: 32, Ways: 4}}

// feedChunks delivers refs in consecutive chunks whose sizes cycle through
// sizes, which must contain a positive size.
func feedChunks(refs []trace.Ref, sizes []int, deliver func([]trace.Ref)) {
	for pos, k := 0, 0; pos < len(refs); k++ {
		sz := sizes[k%len(sizes)]
		if sz > len(refs)-pos {
			sz = len(refs) - pos
		}
		deliver(refs[pos : pos+sz])
		pos += sz
	}
}

// batchStreams returns the streams the batch tests replay at a page shift:
// a generated workload and the handmade straddling stream.
func batchStreams(t *testing.T, shift uint) map[string][]trace.Ref {
	return map[string][]trace.Ref{
		"mcf":      batchTestStream(t, "mcf", 60_000),
		"handmade": handmadeStream(shift),
	}
}

// mixedTimings are the two cycle models mixed groups attach over a
// functional configuration: the paper's Table 3 constants, with RP's
// busy-channel skip, and a fully serialized one-reference-per-cycle core
// with cheap misses and without the skip, under which prefetches are often
// still in flight when they are used.
func mixedTimings(c Config) []TimingConfig {
	paper := DefaultTiming()
	paper.Config = c
	narrow := TimingConfig{Config: c, MissPenalty: 30, BufferHitPenalty: 5, MemOpLatency: 20, CyclesPerRef: 3, RefsPerCycle: 1}
	return []TimingConfig{paper, narrow}
}

// groupMember builds one member of a test group around a fresh mechanism
// and returns it with a snapshot of its statistics — Stats for a
// functional simulator, TimingStats for a timed one — as a comparable
// value.
type groupMember func() (*Simulator, func() any)

// functionalMember builds a functional simulator around pf().
func functionalMember(c Config, pf func() prefetch.Prefetcher) groupMember {
	return func() (*Simulator, func() any) {
		s := New(c, pf())
		return s, func() any { return s.Stats() }
	}
}

// timedMember builds a timed simulator around pf().
func timedMember(tc TimingConfig, pf func() prefetch.Prefetcher) groupMember {
	return func() (*Simulator, func() any) {
		s := NewTiming(tc, pf())
		return s.Simulator, func() any { return s.Stats() }
	}
}

// mixedMembers returns the members of a mixed group: timed members under
// the first cycle model (one of them the frontend member), a functional
// member per equivMechs mechanism, then timed members under the second
// cycle model. The timed mechanisms include RP.
func mixedMembers(c Config) []groupMember {
	timedMechs := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{prefetch.NewRecency(), core.NewDistance(64, 1, 2), prefetch.NewSequential(true), nil}
	}
	var out []groupMember
	add := func(mechs func() []prefetch.Prefetcher, build func(func() prefetch.Prefetcher) groupMember) {
		for i := range mechs() {
			out = append(out, build(func() prefetch.Prefetcher { return mechs()[i] }))
		}
	}
	tcs := mixedTimings(c)
	add(timedMechs, func(pf func() prefetch.Prefetcher) groupMember { return timedMember(tcs[0], pf) })
	add(equivMechs, func(pf func() prefetch.Prefetcher) groupMember { return functionalMember(c, pf) })
	add(timedMechs, func(pf func() prefetch.Prefetcher) groupMember { return timedMember(tcs[1], pf) })
	return out
}

// standaloneStats runs each member as its own simulator, one Ref call per
// reference, and returns the statistics snapshots.
func standaloneStats(members []groupMember, refs []trace.Ref) []any {
	out := make([]any, len(members))
	for i, mk := range members {
		s, snap := mk()
		for _, r := range refs {
			s.Ref(r.PC, r.VAddr)
		}
		out[i] = snap()
	}
	return out
}

// newMemberGroup builds a group of the members and their snapshots.
func newMemberGroup(members []groupMember) (*Group, []func() any) {
	g := NewGroup()
	snaps := make([]func() any, len(members))
	for i, mk := range members {
		s, snap := mk()
		g.Add(s)
		snaps[i] = snap
	}
	return g, snaps
}

// TestSimulatorBatchEquivalence is the differential contract of the batched
// entry points: RefBatch over any chunking of a stream must produce Stats
// byte-identical to per-reference Ref calls, for every mechanism family,
// TLB geometry and page size — including the same-page skip across chunk
// boundaries and after evictions.
func TestSimulatorBatchEquivalence(t *testing.T) {
	for _, geom := range batchGeometries {
		for _, shift := range []uint{12, 21} {
			cfg := Config{TLB: geom, BufferEntries: 8, PageShift: shift}
			for sname, refs := range batchStreams(t, shift) {
				for i, pf := range equivMechs() {
					perRef := New(cfg, pf)
					for _, r := range refs {
						perRef.Ref(r.PC, r.VAddr)
					}
					want := perRef.Stats()
					for _, sizes := range batchChunkings {
						batched := New(cfg, equivMechs()[i])
						feedChunks(refs, sizes, batched.RefBatch)
						if got := batched.Stats(); got != want {
							t.Errorf("%+v shift %d %s, mechanism %d (%s), chunks %v: batched %+v != per-ref %+v",
								geom, shift, sname, i, perRef.Prefetcher().Name(), sizes, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSimulatorRunUsesBatchPath pins that Run over a batch-capable reader
// equals the historical per-Read loop.
func TestSimulatorRunUsesBatchPath(t *testing.T) {
	cfg := Config{TLB: tlb.Config{Entries: 32}, BufferEntries: 8, PageShift: 12}
	refs := batchTestStream(t, "gzip", 50_000)
	for i, pf := range equivMechs() {
		viaRun := New(cfg, pf)
		if err := viaRun.Run(trace.NewSliceReader(refs)); err != nil {
			t.Fatal(err)
		}
		perRef := New(cfg, equivMechs()[i])
		for _, r := range refs {
			perRef.Ref(r.PC, r.VAddr)
		}
		if got, want := viaRun.Stats(), perRef.Stats(); got != want {
			t.Errorf("mechanism %d: Run %+v != per-ref %+v", i, got, want)
		}
	}
}

// TestGroupBatchEquivalence extends the shared-frontend differential
// contract to RefBatch and RunBatch: a chunk-fed group (both shared and
// heterogeneous fan-out) must match the per-Ref group exactly, for every
// geometry, page size and chunking the Simulator test covers. A mixed
// group — functional and timed members under two cycle models behind one
// shared frontend — must match standalone per-reference simulators
// member by member, however it is fed.
func TestGroupBatchEquivalence(t *testing.T) {
	hetero := tlb.Config{Entries: 64, Ways: 4}
	var inFlightHits, skippedPref uint64
	for _, geom := range batchGeometries {
		for _, shift := range []uint{12, 21} {
			streams := batchStreams(t, shift)
			streams["swim"] = batchTestStream(t, "swim", 60_000)
			for sname, refs := range streams {
				for _, shared := range []bool{true, false} {
					mkGroup := func() *Group {
						g := NewGroup()
						for i, pf := range equivMechs() {
							cfg := Config{TLB: geom, BufferEntries: 8, PageShift: shift}
							if !shared && i == 0 {
								cfg.TLB = hetero
							}
							g.Add(New(cfg, pf))
						}
						return g
					}
					perRef := mkGroup()
					if perRef.SharedFrontend() != shared {
						t.Fatalf("shared=%v: unexpected frontend strategy", shared)
					}
					for _, r := range refs {
						perRef.Ref(r.PC, r.VAddr)
					}
					check := func(how string, batched *Group) {
						t.Helper()
						for i := range perRef.Members() {
							got := batched.Members()[i].Stats()
							want := perRef.Members()[i].Stats()
							if got != want {
								t.Errorf("%+v shift %d %s shared=%v %s, member %d: batched %+v != per-ref %+v",
									geom, shift, sname, shared, how, i, got, want)
							}
						}
					}
					viaRun := mkGroup()
					if err := viaRun.RunBatch(trace.NewSliceReader(refs)); err != nil {
						t.Fatal(err)
					}
					check("RunBatch", viaRun)
					for _, sizes := range batchChunkings {
						batched := mkGroup()
						feedChunks(refs, sizes, batched.RefBatch)
						check(fmt.Sprintf("chunks %v", sizes), batched)
					}
				}

				members := mixedMembers(Config{TLB: geom, BufferEntries: 8, PageShift: shift})
				want := standaloneStats(members, refs)
				for _, w := range want {
					if ts, ok := w.(TimingStats); ok {
						inFlightHits += ts.InFlightHits
						skippedPref += ts.SkippedPref
					}
				}
				checkMixed := func(how string, feed func(*Group)) {
					t.Helper()
					g, snaps := newMemberGroup(members)
					if !g.SharedFrontend() {
						t.Fatal("mixed group did not share the frontend")
					}
					feed(g)
					for i, snap := range snaps {
						if got := snap(); got != want[i] {
							t.Errorf("%+v shift %d %s mixed %s, member %d: group %+v != standalone %+v",
								geom, shift, sname, how, i, got, want[i])
						}
					}
				}
				checkMixed("per-ref", func(g *Group) {
					for _, r := range refs {
						g.Ref(r.PC, r.VAddr)
					}
				})
				checkMixed("RunBatch", func(g *Group) {
					if err := g.RunBatch(trace.NewSliceReader(refs)); err != nil {
						t.Fatal(err)
					}
				})
				for _, sizes := range batchChunkings {
					checkMixed(fmt.Sprintf("chunks %v", sizes), func(g *Group) { feedChunks(refs, sizes, g.RefBatch) })
				}
			}
		}
	}
	if inFlightHits == 0 || skippedPref == 0 {
		t.Errorf("mixed groups never exercised the timing-only paths: InFlightHits %d, SkippedPref %d", inFlightHits, skippedPref)
	}
}

// FuzzGroupRefBatch checks the shared frontend's batch path against
// per-reference delivery on arbitrary streams and chunkings, for a group
// mixing functional members with timed ones under two cycle models (RP
// among them): every member, fed in batches or per reference, must match
// its standalone per-reference simulator. Each stream byte is one
// reference over an 8-page alphabet on a 4-entry TLB, so same-page
// repeats, evictions and re-references of evicted pages are all frequent.
func FuzzGroupRefBatch(f *testing.F) {
	f.Add([]byte{0, 0, 8, 1, 1, 2, 3, 4, 0, 0, 5, 13, 5}, []byte{3, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte{2, 0, 5})
	f.Add(bytes.Repeat([]byte{0x10, 0x18, 0x91, 0x12, 0x23, 0x04, 0x25, 0x06}, 16), []byte{7})
	cfg := Config{TLB: tlb.Config{Entries: 4}, BufferEntries: 2, PageShift: 12}
	tcs := mixedTimings(cfg)
	rp := func() prefetch.Prefetcher { return prefetch.NewRecency() }
	dp := func() prefetch.Prefetcher { return core.NewDistance(16, 1, 2) }
	members := []groupMember{
		timedMember(tcs[0], rp),
		functionalMember(cfg, func() prefetch.Prefetcher { return nil }),
		functionalMember(cfg, dp),
		timedMember(tcs[1], rp),
		functionalMember(cfg, func() prefetch.Prefetcher { return prefetch.NewSBFP() }),
		timedMember(tcs[1], dp),
	}
	f.Fuzz(func(t *testing.T, stream, chunking []byte) {
		// The low 3 bits pick the page; the high bits vary the offset
		// within it and the PC.
		refs := make([]trace.Ref, len(stream))
		for i, b := range stream {
			refs[i] = trace.Ref{PC: 0x1000 + 4*uint64(b>>5), VAddr: uint64(b&7)<<12 | 64*uint64(b>>3)}
		}
		// Chunk sizes follow the chunking bytes (mod 16, zero being an
		// empty chunk); a final whole-stream size guarantees progress.
		sizes := make([]int, 0, len(chunking)+1)
		for _, c := range chunking {
			sizes = append(sizes, int(c%16))
		}
		sizes = append(sizes, len(refs))

		want := standaloneStats(members, refs)
		perRef, perRefSnaps := newMemberGroup(members)
		if !perRef.SharedFrontend() {
			t.Fatal("homogeneous group did not share the frontend")
		}
		for _, r := range refs {
			perRef.Ref(r.PC, r.VAddr)
		}
		batched, batchedSnaps := newMemberGroup(members)
		feedChunks(refs, sizes, batched.RefBatch)
		for i := range members {
			if got := perRefSnaps[i](); got != want[i] {
				t.Fatalf("member %d: per-ref group %+v != standalone %+v", i, got, want[i])
			}
			if got := batchedSnaps[i](); got != want[i] {
				t.Fatalf("member %d, chunks %v: batched group %+v != standalone %+v", i, sizes, got, want[i])
			}
		}
	})
}
