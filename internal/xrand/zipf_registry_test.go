package xrand_test

import (
	"fmt"
	"sort"
	"testing"

	"tlbprefetch/internal/workload"
	"tlbprefetch/internal/xrand"
)

type zipfParams struct {
	n     int
	theta float64
}

// registryZipfs returns every distinct (Pages, Theta) a registry workload
// builds a Zipf sampler for, walking Loop bodies.
func registryZipfs() []zipfParams {
	seen := map[zipfParams]bool{}
	var walk func([]workload.Phase)
	walk = func(ps []workload.Phase) {
		for _, p := range ps {
			switch p := p.(type) {
			case *workload.HotSet:
				if p.Theta > 0 {
					seen[zipfParams{p.Pages, p.Theta}] = true
				}
			case *workload.Loop:
				walk(p.Body)
			}
		}
	}
	for _, w := range workload.All() {
		walk(w.Build())
	}
	out := make([]zipfParams, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].theta != out[j].theta {
			return out[i].theta < out[j].theta
		}
		return out[i].n < out[j].n
	})
	return out
}

// TestZipfExactRegistry checks the table against the exact expression for
// every sampler the workload registry uses, and that each of them is
// tabulated (the fast path the generators rely on).
func TestZipfExactRegistry(t *testing.T) {
	ps := registryZipfs()
	if len(ps) == 0 {
		t.Fatal("no Zipf-skewed HotSet in the registry")
	}
	for _, p := range ps {
		t.Run(fmt.Sprintf("n=%d/theta=%v", p.n, p.theta), func(t *testing.T) {
			t.Parallel()
			if !xrand.NewZipf(p.n, p.theta).Tabulated() {
				t.Errorf("NewZipf(%d, %v) is not tabulated", p.n, p.theta)
			}
			xrand.CheckZipfExact(t, p.n, p.theta, 1_000_000)
		})
	}
}
