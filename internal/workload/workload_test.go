package workload

import (
	"testing"

	"tlbprefetch/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 56 {
		t.Fatalf("registered %d workloads, want 56 (the paper's application count)", len(all))
	}
	counts := map[string]int{}
	for _, w := range all {
		counts[w.Suite]++
	}
	want := map[string]int{"SPEC": 26, "MediaBench": 20, "Etch": 5, "PointerIntensive": 5}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d workloads, want %d", suite, counts[suite], n)
		}
	}
}

func TestRegistryFieldsAndUniqueness(t *testing.T) {
	names := map[string]bool{}
	seeds := map[uint64]string{}
	for _, w := range All() {
		if names[w.Name] {
			t.Errorf("duplicate name %q", w.Name)
		}
		names[w.Name] = true
		if prev, dup := seeds[w.Seed]; dup {
			t.Errorf("workloads %q and %q share seed %#x", prev, w.Name, w.Seed)
		}
		seeds[w.Seed] = w.Name
		if w.PaperNote == "" {
			t.Errorf("workload %q has no paper note", w.Name)
		}
		if w.Build == nil {
			t.Errorf("workload %q has no builder", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("swim")
	if !ok || w.Name != "swim" || w.Suite != "SPEC" {
		t.Fatalf("ByName(swim) = %+v, %v", w, ok)
	}
	if _, ok := ByName("no-such-app"); ok {
		t.Fatal("ByName invented a workload")
	}
}

// TestBlockStreamsResolveButAreUnlisted: sweep cells name the block-grained
// streams through ByName, while the 56-application listings stay as they
// are.
func TestBlockStreamsResolveButAreUnlisted(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range Names() {
		listed[n] = true
	}
	for _, b := range BlockStreams() {
		if w, ok := ByName(b.Name); !ok || w.Seed != b.Seed {
			t.Errorf("ByName(%q) = %+v, %v", b.Name, w, ok)
		}
		if listed[b.Name] {
			t.Errorf("Names lists block stream %q", b.Name)
		}
	}
	if got := Suite("cache"); len(got) != 0 {
		t.Errorf("Suite(cache) lists %d workloads", len(got))
	}
}

func TestSuiteOrderStable(t *testing.T) {
	spec := Suite("SPEC")
	if len(spec) != 26 {
		t.Fatalf("SPEC suite has %d entries", len(spec))
	}
	// Paper figure order: gzip leads Figure 7.
	if spec[0].Name != "gzip" {
		t.Fatalf("first SPEC workload = %q, want gzip", spec[0].Name)
	}
	if len(Names()) != 56 {
		t.Fatalf("Names() returned %d", len(Names()))
	}
}

func TestGenerateExactBudget(t *testing.T) {
	w, _ := ByName("gzip")
	var n uint64
	got := Generate(w, 10000, func(pc, vaddr uint64) bool {
		n++
		return true
	})
	if got != 10000 || n != 10000 {
		t.Fatalf("generated %d (callback saw %d), want 10000", got, n)
	}
}

func TestGenerateSinkStops(t *testing.T) {
	w, _ := ByName("gzip")
	var n uint64
	got := Generate(w, 10000, func(pc, vaddr uint64) bool {
		n++
		return n < 100
	})
	if got != 100 || n != 100 {
		t.Fatalf("early stop: generated %d, callback saw %d, want 100", got, n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "swim", "gsm-enc", "fma3d", "winword"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		h1 := streamHash(w, 50000)
		h2 := streamHash(w, 50000)
		if h1 != h2 {
			t.Errorf("%s: stream not deterministic", name)
		}
	}
}

func streamHash(w Workload, n uint64) uint64 {
	var h uint64 = 14695981039346656037
	Generate(w, n, func(pc, vaddr uint64) bool {
		h = (h ^ pc) * 1099511628211
		h = (h ^ vaddr) * 1099511628211
		return true
	})
	return h
}

func TestDistinctWorkloadsDiffer(t *testing.T) {
	a, _ := ByName("gzip")
	b, _ := ByName("mcf")
	if streamHash(a, 20000) == streamHash(b, 20000) {
		t.Fatal("distinct workloads produced identical streams")
	}
}

func TestReaderMatchesGenerate(t *testing.T) {
	w, _ := ByName("parser")
	var direct []trace.Ref
	Generate(w, 5000, func(pc, vaddr uint64) bool {
		direct = append(direct, trace.Ref{PC: pc, VAddr: vaddr})
		return true
	})
	r := Reader(w, 5000)
	for i := range direct {
		ref, err := r.Read()
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		if ref != direct[i] {
			t.Fatalf("ref %d: reader %v != generate %v", i, ref, direct[i])
		}
	}
}

func TestGenerateTo(t *testing.T) {
	w, _ := ByName("bc")
	var sw trace.SliceWriter
	n, err := GenerateTo(w, 3000, &sw)
	if err != nil || n != 3000 || len(sw.Refs) != 3000 {
		t.Fatalf("GenerateTo = %d, %v (%d refs)", n, err, len(sw.Refs))
	}
}

func TestGenerateEmptyWorkload(t *testing.T) {
	if n := Generate(Workload{}, 100, func(pc, vaddr uint64) bool { return true }); n != 0 {
		t.Fatalf("empty workload generated %d refs", n)
	}
	w := Workload{Name: "x", Build: func() []Phase { return nil }}
	if n := Generate(w, 100, func(pc, vaddr uint64) bool { return true }); n != 0 {
		t.Fatalf("phase-less workload generated %d refs", n)
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register accepted a nameless workload")
		}
	}()
	register(Workload{})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("register accepted a duplicate name")
		}
	}()
	register(Workload{Name: "gzip", Build: func() []Phase { return nil }})
}

// genBenchRefs is the stream length one BenchmarkGenerate op produces:
// long enough that model construction (chase orders, Zipf tables) is a
// small share, as in a sweep cell.
const genBenchRefs = 200_000

// BenchmarkGenerate reports each registry workload's generation cost in
// ns/ref, from a fresh Build as every sweep cell does.
func BenchmarkGenerate(b *testing.B) {
	for _, w := range All() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for b.Loop() {
				Generate(w, genBenchRefs, func(pc, vaddr uint64) bool {
					sink ^= vaddr
					return true
				})
			}
			genSink = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*genBenchRefs), "ns/ref")
		})
	}
}

var genSink uint64
