package xrand

import "testing"

// CheckZipfExact exposes the sampler's exactness check to the external
// test package, which walks the workload registry.
func CheckZipfExact(t *testing.T, n int, theta float64, draws int) {
	t.Helper()
	checkZipfExact(t, n, theta, draws)
}

// Tabulated reports whether z answers draws from its table.
func (z *Zipf) Tabulated() bool { return z.th != nil }
