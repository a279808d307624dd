package xrand

import (
	"fmt"
	"math"
	"testing"
)

func TestZipfSkewAndBounds(t *testing.T) {
	r := New(13)
	z := NewZipf(100, 0.8)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] < counts[50]*3 {
		t.Fatalf("insufficient skew: head %d vs middle %d", counts[0], counts[50])
	}
}

// zipfWindow is how many uniforms on each side of a threshold, just outside
// its guard band, the exactness check compares.
const zipfWindow = 4096

// checkZipfExact asserts that the tabulated sampler over (n, theta) returns
// the exact expression's index where a table could go wrong: in the
// windows just outside the guard band of every threshold (of 256 evenly
// spread ones when n is larger), at the branch edges and the ends of the
// range, at every guide-bucket edge, and for draws random uniforms.
func checkZipfExact(t *testing.T, n int, theta float64, draws int) {
	t.Helper()
	z := NewZipf(n, theta)
	fails := 0
	check := func(m int64) {
		if m < 0 || m >= 1<<53 {
			return
		}
		got, want := z.index(m), z.exact(m)
		if got == want && got >= 0 && got < n {
			return
		}
		if fails++; fails <= 5 {
			t.Errorf("NewZipf(%d, %v): m=%d gives %d, exact %d", n, theta, m, got, want)
		}
	}
	step := 1 + len(z.th)/256
	for k := 1; k < len(z.th)-1 && z.th[k] < 1<<53; k += step {
		for off := int64(0); off < zipfWindow; off++ {
			check(z.th[k] - zipfGuard - off)
			check(z.th[k] + zipfGuard + off)
		}
	}
	for _, m := range []int64{0, z.lo - 1, z.lo, 1<<53 - 1} {
		check(m)
	}
	for b := int64(0); b < 1<<(53-zipfGuideShift); b++ {
		check(b<<zipfGuideShift - 1)
		check(b << zipfGuideShift)
	}
	r := New(uint64(n)<<32 ^ math.Float64bits(theta))
	for i := 0; i < draws; i++ {
		check(int64(r.Uint64() >> 11))
	}
}

// TestZipfExactSpread checks the table against the expression over a
// spread of sizes and skews, including the tabulation limits; the
// registry's own pairs are checked in TestZipfExactRegistry.
func TestZipfExactSpread(t *testing.T) {
	for _, c := range []struct {
		n      int
		thetas []float64
	}{
		{1, []float64{0.001, 0.5, 0.999999}},
		{2, []float64{0.001, 0.421, 0.5, 0.792, 0.999999}},
		{3, []float64{0.001, 0.99, 0.999999}},
		{17, []float64{0.25, 0.8}},
		{256, []float64{0.5, 0.999999}},
		{zipfMaxTable, []float64{0.01, 0.9}},
		{zipfMaxTable + 1, []float64{0.5}},
	} {
		for _, theta := range c.thetas {
			checkZipfExact(t, c.n, theta, 20000)
		}
	}
}

func TestZipfTabulationLimits(t *testing.T) {
	for _, c := range []struct {
		n     int
		theta float64
		want  bool
	}{
		{2, 0.5, false},
		{3, 0.5, true},
		{zipfMaxTable, 0.5, true},
		{zipfMaxTable + 1, 0.5, false},
		{3, 0.999999, false}, // eta below zipfMinEta
	} {
		if got := NewZipf(c.n, c.theta).th != nil; got != c.want {
			t.Errorf("NewZipf(%d, %v) tabulated = %v, want %v", c.n, c.theta, got, c.want)
		}
	}
}

func TestZipfStreamMatchesExpression(t *testing.T) {
	// Next consumes one Uint64 per draw and returns the expression's index
	// for it, so a paired generator replays the same uniforms.
	z := NewZipf(72, 0.4)
	a, b := New(5), New(5)
	for i := 0; i < 100000; i++ {
		if got, want := z.Next(a), z.exact(int64(b.Uint64()>>11)); got != want {
			t.Fatalf("draw %d: Next %d, exact %d", i, got, want)
		}
	}
}

func TestNewZipfDomain(t *testing.T) {
	for _, c := range []struct {
		n     int
		theta float64
	}{{24, 1}, {24, 0}, {24, -0.5}, {24, 1.5}, {24, math.NaN()}, {0, 0.5}, {-3, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.theta)
				}
			}()
			NewZipf(c.n, c.theta)
		}()
	}
	// The smallest sizes: n = 1 only has index 0, and n = 2 (eta = NaN)
	// stays in range on every branch.
	for _, theta := range []float64{0.3, 0.421, 0.5, 0.792, 0.999} {
		for n := 1; n <= 2; n++ {
			z := NewZipf(n, theta)
			for _, m := range []int64{0, z.lo - 1, z.lo, 1<<53 - 1} {
				if m < 0 || m >= 1<<53 {
					continue
				}
				if v := z.index(m); v < 0 || v >= n {
					t.Errorf("NewZipf(%d, %v): m=%d gives %d", n, theta, m, v)
				}
			}
		}
	}
}

func FuzzZipf(f *testing.F) {
	f.Add(uint16(23), 0.5, uint64(0), uint16(0), uint16(0))
	f.Add(uint16(71), 0.4, uint64(1<<53-1), uint16(7), uint16(4095))
	f.Add(uint16(89), 0.3, uint64(1<<52), uint16(88), uint16(1))
	f.Add(uint16(63), 0.7, uint64(12345), uint16(3), uint16(17))
	f.Add(uint16(1), 0.999, uint64(1<<53-2), uint16(1), uint16(0))
	f.Add(uint16(4095), 0.01, uint64(1), uint16(4000), uint16(100))
	f.Fuzz(func(t *testing.T, nRaw uint16, theta float64, m uint64, k, off uint16) {
		if !(theta > 0 && theta < 1) {
			return
		}
		n := int(nRaw%zipfMaxTable) + 1
		z := NewZipf(n, theta)
		ms := []int64{int64(m >> 11)}
		if len(z.th) > 2 {
			// Aim at one threshold, just outside its guard band.
			th := z.th[1+int(k)%(n-1)]
			d := int64(zipfGuard) + int64(off%zipfWindow)
			ms = append(ms, th-d, th+d)
		}
		for _, m := range ms {
			if m < 0 || m >= 1<<53 {
				continue
			}
			got, want := z.index(m), z.exact(m)
			if got != want || got < 0 || got >= n {
				t.Fatalf("NewZipf(%d, %v): m=%d gives %d, exact %d", n, theta, m, got, want)
			}
		}
	})
}

func BenchmarkZipfNext(b *testing.B) {
	for _, theta := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		b.Run(fmt.Sprintf("theta=%v", theta), func(b *testing.B) {
			z := NewZipf(64, theta)
			r := New(1)
			sum := 0
			for b.Loop() {
				sum += z.Next(r)
			}
			zipfSink = sum
		})
	}
}

var zipfSink int
