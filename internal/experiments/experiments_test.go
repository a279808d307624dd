package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tlbprefetch/internal/sweep"
	"tlbprefetch/internal/workload"
)

// shapeOpts runs long enough for history mechanisms to warm up but keeps
// the suite fast.
func shapeOpts() Options {
	o := DefaultOptions()
	o.Refs = 500_000
	return o
}

// headline returns accuracies for the four Table 2 mechanisms at the
// paper's operating point (r=256, direct-mapped, s=2).
func headline(t *testing.T, app string) (dp, rp, asp, mp float64, missRate float64) {
	t.Helper()
	w, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("missing workload %q", app)
	}
	res := RunApp(w, shapeOpts(), []MechConfig{
		{Kind: "DP", Rows: 256, Ways: 1},
		{Kind: "RP"},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "MP", Rows: 256, Ways: 1},
	})
	return res.Acc[0], res.Acc[1], res.Acc[2], res.Acc[3], res.MissRate
}

func TestShapeFirstTouchStrided(t *testing.T) {
	// gzip group: "ASP captures many of the first time reference
	// predictions that history based mechanisms are not very well suited
	// to" — ASP and DP well ahead of RP and MP.
	dp, rp, asp, mp, _ := headline(t, "gzip")
	if asp < 0.4 || dp < 0.4 {
		t.Errorf("gzip: strided predictors too weak (DP %.2f ASP %.2f)", dp, asp)
	}
	if rp > 0.3 || mp > 0.3 {
		t.Errorf("gzip: history predictors should have little to replay (RP %.2f MP %.2f)", rp, mp)
	}
}

func TestShapeHistoryWins(t *testing.T) {
	// crafty: "accesses are not strided enough for ASP ... historical
	// indications can give a much better perspective ... for RP and MP."
	dp, rp, asp, _, _ := headline(t, "crafty")
	if rp < 0.6 {
		t.Errorf("crafty: RP = %.2f, want history to win", rp)
	}
	if asp > 0.1 {
		t.Errorf("crafty: ASP = %.2f, want near zero (unstrided)", asp)
	}
	if dp >= rp {
		t.Errorf("crafty: DP %.2f should trail RP %.2f here", dp, rp)
	}
}

func TestShapeStencilDPWellAhead(t *testing.T) {
	// swim: "DP does much better than the others". The stencil models have
	// long outer iterations (~260k refs), so measure steady state after a
	// warmup pass, like the paper's fast-forward.
	w, _ := workload.ByName("swim")
	opts := shapeOpts()
	opts.WarmupRefs = 600_000
	res := RunApp(w, opts, []MechConfig{
		{Kind: "DP", Rows: 256, Ways: 1},
		{Kind: "RP"},
		{Kind: "ASP", Rows: 256, Ways: 1},
		{Kind: "MP", Rows: 256, Ways: 1},
	})
	dp, rp, asp, mp := res.Acc[0], res.Acc[1], res.Acc[2], res.Acc[3]
	if dp < 0.7 {
		t.Errorf("swim: DP = %.2f, want > 0.7", dp)
	}
	if dp < rp+0.15 || dp < asp+0.1 || dp < mp+0.3 {
		t.Errorf("swim: DP %.2f must be well ahead of RP %.2f, ASP %.2f, MP %.2f", dp, rp, asp, mp)
	}
}

func TestShapeDPOnlyCodecs(t *testing.T) {
	// gsm-enc: "DP is the only mechanism which makes any noticeable
	// predictions (even if the accuracy does not exceed 20%)".
	dp, rp, asp, mp, _ := headline(t, "gsm-enc")
	if dp < 0.05 || dp > 0.45 {
		t.Errorf("gsm-enc: DP = %.2f, want noticeable but modest", dp)
	}
	for name, v := range map[string]float64{"RP": rp, "ASP": asp, "MP": mp} {
		if v > 0.05 {
			t.Errorf("gsm-enc: %s = %.2f, want ~0", name, v)
		}
	}
}

func TestShapeNothingWorks(t *testing.T) {
	dp, rp, asp, mp, _ := headline(t, "fma3d")
	for name, v := range map[string]float64{"DP": dp, "RP": rp, "ASP": asp, "MP": mp} {
		if v > 0.05 {
			t.Errorf("fma3d: %s = %.2f, want ~0 (unstructured random walk)", name, v)
		}
	}
}

func TestShapeFewMisses(t *testing.T) {
	_, _, _, _, mr := headline(t, "eon")
	if mr > 0.003 {
		t.Errorf("eon miss rate = %.4f, want almost none", mr)
	}
}

func TestShapeRPBeatsDPOnTable3Apps(t *testing.T) {
	// "RP provides better accuracy than DP for 5 applications - vpr, mcf,
	// twolf, ammp and lucas."
	for _, app := range Table3AppNames() {
		dp, rp, _, _, _ := headline(t, app)
		if rp <= dp {
			t.Errorf("%s: RP %.3f should beat DP %.3f on accuracy", app, rp, dp)
		}
		if dp < 0.3 {
			t.Errorf("%s: DP %.3f should still be substantial", app, dp)
		}
	}
}

func TestShapeAlternationMPBeatsRP(t *testing.T) {
	// parser/vortex: "MP does better than even RP" (with enough rows).
	for _, app := range []string{"parser", "vortex"} {
		w, _ := workload.ByName(app)
		res := RunApp(w, shapeOpts(), []MechConfig{
			{Kind: "MP", Rows: 1024, Ways: 1},
			{Kind: "RP"},
		})
		if res.Acc[0] <= res.Acc[1] {
			t.Errorf("%s: MP,1024 %.3f should beat RP %.3f", app, res.Acc[0], res.Acc[1])
		}
	}
}

func TestShapeMPStarvedAtSmallTables(t *testing.T) {
	// galgel/art/mesa: "MP performs poorly with small r. Since these are
	// quite large data sets, keeping the history for all the references
	// needs considerably more space."
	for _, app := range []string{"galgel", "art", "mesa"} {
		w, _ := workload.ByName(app)
		res := RunApp(w, shapeOpts(), []MechConfig{{Kind: "MP", Rows: 256, Ways: 1}})
		if res.Acc[0] > 0.2 {
			t.Errorf("%s: MP,256 = %.3f, want starved (< 0.2)", app, res.Acc[0])
		}
	}
}

func TestShapeMissRateBands(t *testing.T) {
	// The paper's eight highest-miss-rate applications (§3.2) with their
	// published rates; the models must land within loose bands, and the
	// qualitative ordering (galgel and adpcm far above the rest) must hold.
	bands := map[string][2]float64{
		"galgel":    {0.17, 0.29},   // paper 0.228
		"adpcm-enc": {0.14, 0.24},   // paper 0.192
		"mcf":       {0.07, 0.11},   // paper 0.090
		"apsi":      {0.012, 0.026}, // paper 0.018
		"vpr":       {0.011, 0.023}, // paper 0.016
		"lucas":     {0.011, 0.023}, // paper 0.016
		"twolf":     {0.009, 0.019}, // paper 0.013
		"ammp":      {0.007, 0.016}, // paper 0.0113
	}
	for app, band := range bands {
		_, _, _, _, mr := headline(t, app)
		if mr < band[0] || mr > band[1] {
			t.Errorf("%s miss rate %.4f outside band [%.3f, %.3f]", app, mr, band[0], band[1])
		}
	}
}

func TestTable2Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 runs all 56 workloads")
	}
	opts := DefaultOptions()
	opts.Refs = 400_000
	res := Table2(opts)
	byName := map[string]Table2Row{}
	for _, r := range res.Rows {
		byName[r.Mechanism] = r
	}
	// Paper Table 2 orderings: DP best plain average, MP worst; weighted
	// averages put DP and RP on top (nearly tied) with ASP behind and MP
	// collapsed.
	if !(byName["DP"].Average > byName["RP"].Average &&
		byName["RP"].Average > byName["MP"].Average &&
		byName["ASP"].Average > byName["MP"].Average) {
		t.Errorf("plain average ordering broken: %+v", summary(res))
	}
	if !(byName["DP"].WeightedAvg > byName["ASP"].WeightedAvg &&
		byName["RP"].WeightedAvg > byName["ASP"].WeightedAvg &&
		byName["ASP"].WeightedAvg > byName["MP"].WeightedAvg) {
		t.Errorf("weighted average ordering broken: %+v", summary(res))
	}
	if byName["MP"].WeightedAvg > 0.15 {
		t.Errorf("MP weighted average %.3f, paper reports collapse (0.04)", byName["MP"].WeightedAvg)
	}
	if len(byName["DP"].PerApp) != 56 {
		t.Errorf("table 2 covered %d apps, want 56", len(byName["DP"].PerApp))
	}
}

func summary(r Table2Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(row.Mechanism + ": ")
		b.WriteString(strings.TrimSpace(FormatTable2(r)))
		break
	}
	return b.String()
}

func TestTable3DPAlwaysWinsCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("timing runs")
	}
	opts := DefaultOptions()
	opts.Refs = 400_000
	rows := Table3(opts)
	if len(rows) != 5 {
		t.Fatalf("table 3 rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's conclusion: "DP still comes out in front when
		// considering execution cycles" on every one of these apps.
		if r.DPNormalized >= r.RPNormalized {
			t.Errorf("%s: DP %.3f should beat RP %.3f", r.App, r.DPNormalized, r.RPNormalized)
		}
		if r.DPNormalized >= 1.0 {
			t.Errorf("%s: DP %.3f should beat no-prefetching", r.App, r.DPNormalized)
		}
		// RP's traffic: "RP generates much more memory traffic ranging
		// from anywhere between 2-3 times that for DP" (at least 2x here).
		if r.RPStats.MemOps() < 2*r.DPStats.MemOps() {
			t.Errorf("%s: RP memops %d not >= 2x DP %d", r.App, r.RPStats.MemOps(), r.DPStats.MemOps())
		}
	}
	// mcf: RP slower than no prefetching (paper: 1.09).
	for _, r := range rows {
		if r.App == "mcf" && r.RPNormalized <= 1.0 {
			t.Errorf("mcf: RP %.3f, paper reports a slowdown (1.09)", r.RPNormalized)
		}
	}
}

func TestFig9Insensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep")
	}
	opts := DefaultOptions()
	opts.Refs = 300_000
	res := Fig9(opts)
	// Panel a: "even a small direct-mapped 32-256 entry table suffices" —
	// DP,256,D within 0.1 of DP,1024,D for every app.
	for _, app := range res.TableGeometry {
		big, _ := app.Get("DP,1024,D")
		mid, _ := app.Get("DP,256,D")
		if big-mid > 0.1 {
			t.Errorf("%s: DP,256 %.3f much worse than DP,1024 %.3f", app.App, mid, big)
		}
	}
	// Panel b/c/d: growing s, b or the TLB never hurts much.
	for _, app := range res.SlotCount {
		if app.Acc[0] > app.Acc[2]+0.1 {
			t.Errorf("%s: accuracy dropped sharply with more slots: %v", app.App, app.Acc)
		}
	}
	for _, app := range res.BufferSize {
		if app.Acc[0] > app.Acc[2]+0.05 {
			t.Errorf("%s: bigger buffer hurt: %v", app.App, app.Acc)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1(DefaultOptions())
	for _, want := range []string{"ASP", "MP", "RP", "DP", "distance", "in memory", "PC"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestMechConfigLabels(t *testing.T) {
	cases := []struct {
		m    MechConfig
		want string
	}{
		{MechConfig{Kind: "RP"}, "RP"},
		{MechConfig{Kind: "DP", Rows: 256, Ways: 1}, "DP,256,D"},
		{MechConfig{Kind: "DP", Rows: 256, Ways: 4}, "DP,256,4"},
		{MechConfig{Kind: "MP", Rows: 256, Ways: 256}, "MP,256,F"},
	}
	for _, c := range cases {
		if got := c.m.Label(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
}

func TestFig7ConfigsMatchPaperLegend(t *testing.T) {
	cfgs := Fig7Configs()
	// RP + 8 MP bars + 6 DP bars + 6 ASP bars.
	if len(cfgs) != 21 {
		t.Fatalf("fig7 has %d bars, want 21", len(cfgs))
	}
	if cfgs[0].Kind != "RP" {
		t.Fatal("first bar must be RP (left-most in the paper's figures)")
	}
}

func TestRunAppSharedMissStream(t *testing.T) {
	w, _ := workload.ByName("gap")
	opts := DefaultOptions()
	opts.Refs = 100_000
	res := RunApp(w, opts, []MechConfig{{Kind: "DP", Rows: 256, Ways: 1}, {Kind: "RP"}})
	if res.Stats[0].Misses != res.Stats[1].Misses {
		t.Fatalf("fan-out members saw different miss streams: %d vs %d",
			res.Stats[0].Misses, res.Stats[1].Misses)
	}
	if res.MissRate <= 0 {
		t.Fatal("no misses recorded")
	}
}

func TestExtDPVariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("variant sweep")
	}
	opts := DefaultOptions()
	opts.Refs = 200_000
	res := ExtDPVariants(opts)
	if len(res) != 8 {
		t.Fatalf("variant rows = %d", len(res))
	}
	for _, r := range res {
		if len(r.Acc) != 6 {
			t.Fatalf("%s: %d accuracies", r.App, len(r.Acc))
		}
	}
}

func TestExtCacheShape(t *testing.T) {
	opts := DefaultOptions()
	opts.Refs = 400_000
	rows := ExtCache(opts)
	if len(rows) != 3 {
		t.Fatalf("cache rows = %d", len(rows))
	}
	for _, r := range rows {
		switch r.Workload {
		case "cache-seq":
			if r.DP < 0.9 || r.SP < 0.9 {
				t.Errorf("cache-seq: sequential must be easy (DP %.2f SP %.2f)", r.DP, r.SP)
			}
		case "cache-motif":
			if r.DP < 0.8 || r.ASP > 0.2 {
				t.Errorf("cache-motif: DP %.2f should own the motif (ASP %.2f)", r.DP, r.ASP)
			}
		case "cache-chase":
			if r.DP > 0.2 {
				t.Errorf("cache-chase: DP %.2f should fail on a full shuffle", r.DP)
			}
		}
	}
}

// TestExtCacheCachedRerun: ext-cache's nine cells live in the sweep store
// like any other experiment's, so a second call on the same store simulates
// nothing and returns the same rows.
func TestExtCacheCachedRerun(t *testing.T) {
	store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "ext.json"))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Refs = 40_000
	opts.Store = store
	var first, second sweep.Summary
	opts.Tally = &first
	rows := ExtCache(opts)
	opts.Tally = &second
	again := ExtCache(opts)
	if first.Total != 9 || first.Ran != 9 || first.Shards != 3 {
		t.Errorf("cold call tallied %+v, want 9 cells run in 3 shards", first)
	}
	if second.Total != 9 || second.Cached != 9 || second.Ran != 0 {
		t.Errorf("warm call tallied %+v, want 9 cached and 0 run", second)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Errorf("cached rows differ:\n%+v\n%+v", rows, again)
	}
}

// TestExtCacheTooFewRefs: below four references per workload no stream
// gets a reference, so ExtCache declares no cells and reports zero rows.
func TestExtCacheTooFewRefs(t *testing.T) {
	opts := DefaultOptions()
	opts.Refs = 3
	var tally sweep.Summary
	opts.Tally = &tally
	rows := ExtCache(opts)
	if len(rows) != 3 || tally.Total != 0 {
		t.Fatalf("rows %+v, tally %+v", rows, tally)
	}
	for _, r := range rows {
		if r != (ExtCacheRow{Workload: r.Workload}) {
			t.Errorf("non-zero row %+v", r)
		}
	}
}

func TestExtMultiprogPolicies(t *testing.T) {
	opts := DefaultOptions()
	opts.Refs = 300_000
	rows := ExtMultiprog(opts)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At every quantum: per-process >= flush (small tolerance), and the
	// flush penalty shrinks as the quantum grows. Coverage (buffer hits /
	// misses) is the paper's metric.
	byQ := map[uint64]map[string]float64{}
	for _, r := range rows {
		if byQ[r.Quantum] == nil {
			byQ[r.Quantum] = map[string]float64{}
		}
		byQ[r.Quantum][r.Policy] = r.Coverage
	}
	for q, m := range byQ {
		if m["flush"] > m["per-process"]+0.02 {
			t.Errorf("quantum %d: flush %.3f beats per-process %.3f", q, m["flush"], m["per-process"])
		}
	}
	if byQ[5000]["flush"] > byQ[100000]["flush"] {
		t.Errorf("flush penalty should shrink with quantum: %.3f vs %.3f",
			byQ[5000]["flush"], byQ[100000]["flush"])
	}
}

func TestExtPageSizeStability(t *testing.T) {
	if testing.Short() {
		t.Skip("page size sweep")
	}
	opts := DefaultOptions()
	opts.Refs = 300_000
	rows := ExtPageSize(opts)
	for _, r := range rows {
		// "DP is able to make good predictions across different TLB
		// configurations and page sizes": no collapse at larger pages.
		if r.Acc8K < r.Acc4K-0.15 || r.Acc16K < r.Acc4K-0.2 {
			t.Errorf("%s: DP collapsed with page size: 4K %.2f 8K %.2f 16K %.2f",
				r.App, r.Acc4K, r.Acc8K, r.Acc16K)
		}
	}
}
