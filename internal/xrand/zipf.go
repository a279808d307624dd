package xrand

import (
	"fmt"
	"math"
)

// Zipf draws from a Zipf-like distribution over [0, n); small indices are
// hottest. It uses the classic inverse-CDF approximation from Knuth/Gray et
// al., adequate for workload skew modelling.
//
// The approximation is one expression of the uniform draw (exact, below).
// Evaluating it costs up to two math.Pow calls per draw, so NewZipf
// tabulates it instead: where the expression steps from index k-1 to k is
// found once, by binary search over the 2^53 possible uniforms, and Next
// looks the draw up among those thresholds. Draws too close to a threshold
// for the table to be trusted fall back to the expression itself, so Next
// returns exactly what evaluating the expression on every draw would.
type Zipf struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	c1    float64 // 1 + 0.5^theta: u*zetan below it selects index 1

	// lo is the smallest 53-bit uniform m that reaches the expression's
	// power branch. Draws below it, and every draw of an untabulated
	// sampler (lo == 1<<53), evaluate the expression directly; neither
	// case calls math.Pow.
	lo int64
	// th[k] for 1 <= k < n is the smallest m >= lo at which the expression
	// returns at least k; th[0] and th[n] are sentinels below and above
	// every m. Unreachable indices hold the upper sentinel.
	th []int64
	// guide[b] is the number of thresholds th[1..n-1] at or below b's
	// first m, b = m>>zipfGuideShift: the start of the scan over th.
	guide []uint16
}

const (
	// zipfGuard is how close to a threshold a draw may fall and still be
	// answered from the table; closer draws evaluate the expression. See
	// tabulate for why that keeps the table exact.
	zipfGuard = 1 << 16
	// zipfMinEta bounds how flat the power branch may be for tabulation:
	// the expression's rounding noise spans about 9/eta uniforms around
	// each threshold, which must stay well inside zipfGuard.
	zipfMinEta = 1.0 / 256
	// zipfMaxTable is the largest n tabulated: construction evaluates the
	// expression about 53 times per index.
	zipfMaxTable = 4096
	// zipfGuideShift buckets the 53-bit uniform into 1024 guide entries.
	zipfGuideShift = 53 - 10
	// zipfNever is the upper threshold sentinel, above every uniform.
	zipfNever = 1 << 62
)

// NewZipf builds a Zipf sampler over [0, n) with skew theta in (0, 1);
// larger theta skews more toward index 0. It panics for n < 1 or theta
// outside (0, 1): at theta = 1 the expression's exponent is infinite.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 || !(theta > 0 && theta < 1) {
		panic(fmt.Sprintf("xrand: NewZipf(%d, %v) needs n >= 1 and 0 < theta < 1", n, theta))
	}
	z := &Zipf{n: n}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	// n == 2 makes eta 0/0 = NaN; exact maps the power branch to index 1.
	z.eta = (1 - pow(2.0/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.c1 = 1.0 + pow(0.5, theta)
	z.tabulate()
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / pow(float64(i), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Next draws the next Zipf-distributed index in [0, n) using r as the
// entropy source. Every draw consumes exactly one r.Uint64.
func (z *Zipf) Next(r *Rand) int {
	return z.index(int64(r.Uint64() >> 11))
}

// index maps the 53-bit uniform m (Float64 is m/2^53) to its index. It
// equals exact(m) for every m.
func (z *Zipf) index(m int64) int {
	if m < z.lo {
		return z.exact(m)
	}
	k := int(z.guide[m>>zipfGuideShift])
	for z.th[k+1] <= m {
		k++
	}
	if m-z.th[k] < zipfGuard || z.th[k+1]-m < zipfGuard {
		return z.exact(m)
	}
	return k
}

// exact is the sampler's defining expression, evaluated for the uniform
// u = m/2^53. It is the only definition of the distribution: the table
// reproduces it, falls back to it, and is tested against it.
func (z *Zipf) exact(m int64) int {
	u := float64(m) / (1 << 53)
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.c1 {
		return 1
	}
	x := float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha)
	if !(x < float64(z.n)) {
		// u near 1 can round the power up to 1, and n == 2 gives NaN.
		return z.n - 1
	}
	return int(x)
}

// tabulate fills lo, th and guide, or leaves the sampler untabulated.
//
// Why the table is exact. The power branch computes
// n*pow(eta*u-eta+1, alpha). Its base is monotone in m, because each
// floating-point operation on the way is, so the expression could only
// step down as m grows through math.Pow's rounding, which is a few ulps,
// growing with alpha as the integer part of the exponent is applied by
// repeated squaring. A relative error e in the power moves the point where
// n*pow crosses an integer by e*base*2^53/(alpha*eta) uniforms; with e up
// to (2*alpha+4) ulps that is under 6/eta, and the roundings of the base
// and of the product add under 3/eta. So any back-and-forth of the
// expression lies within 9/eta uniforms of where it first reaches k, which
// is where the binary search below lands: a search over a predicate false
// well below that window and true well above it returns a point inside it.
// Tabulating only for eta >= zipfMinEta keeps the window within 2304
// uniforms, and any m at least zipfGuard = 65536 away from every threshold
// therefore has exact(m) == the number of thresholds at or below m, which
// is what index returns. Draws inside a guard band, probability about
// 2*zipfGuard*(n-1)/2^53 (1.4e-9 at n = 100), take the exact path.
func (z *Zipf) tabulate() {
	z.lo = 1 << 53
	if z.n < 3 || z.n > zipfMaxTable || !(z.eta >= zipfMinEta) {
		return
	}
	// u*zetan is monotone in m, so the power branch starts at one exact m.
	z.lo = searchInt64(0, 1<<53, func(m int64) bool { return float64(m)/(1<<53)*z.zetan >= z.c1 })
	if z.lo == 1<<53 {
		return
	}
	th := make([]int64, z.n+1)
	th[0], th[z.n] = -zipfNever, zipfNever
	from := z.lo
	for k := 1; k < z.n; k++ {
		from = searchInt64(from, 1<<53, func(m int64) bool { return z.exact(m) >= k })
		th[k] = from
		if from == 1<<53 {
			th[k] = zipfNever
		}
	}
	guide := make([]uint16, 1<<(53-zipfGuideShift))
	k := 0
	for b := range guide {
		for th[k+1] <= int64(b)<<zipfGuideShift {
			k++
		}
		guide[b] = uint16(k)
	}
	z.th, z.guide = th, guide
}

// searchInt64 returns the smallest m in [lo, hi) for which ok is true,
// assuming ok is false then true over the range, or hi if there is none.
func searchInt64(lo, hi int64, ok func(int64) bool) int64 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
