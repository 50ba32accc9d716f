// Package num centralises the numerical policy of the repository:
// floating-point tolerances, numerically stable summation, and the
// closed-form volumes used as ground truth by the volume-estimation
// experiments.
//
// Every package that compares floats goes through this package so that the
// tolerance story is consistent. The paper's algorithms are relative-error
// approximation schemes, so float64 with explicit tolerances is a faithful
// substrate: their answers already allow relative errors of order ε,
// far above float64's 2⁻⁵² rounding.
package num

import (
	"math"
	"sort"
)

// Eps is the default absolute tolerance used when comparing coordinates,
// constraint slacks and matrix pivots. It is deliberately much larger than
// machine epsilon: the quantities being compared are results of O(d)
// arithmetic on O(1) inputs.
const Eps = 1e-9

// LooseEps is the tolerance used for quantities that have accumulated
// larger rounding error, such as volumes produced by recursive
// decompositions.
const LooseEps = 1e-6

// Zero reports whether x is zero within Eps.
func Zero(x float64) bool { return math.Abs(x) <= Eps }

// Eq reports whether a and b are equal within Eps.
func Eq(a, b float64) bool { return math.Abs(a-b) <= Eps }

// Leq reports whether a <= b within Eps.
func Leq(a, b float64) bool { return a <= b+Eps }

// Geq reports whether a >= b within Eps.
func Geq(a, b float64) bool { return a >= b-Eps }

// Positive reports whether x is strictly positive beyond Eps.
func Positive(x float64) bool { return x > Eps }

// Negative reports whether x is strictly negative beyond Eps.
func Negative(x float64) bool { return x < -Eps }

// Clamp returns x clamped into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// WithinRatio reports whether got approximates want with ratio 1+eps in the
// paper's sense (Definition in §2): (1+eps)^-1 * want <= got <= (1+eps) * want.
// Both arguments must be non-negative.
func WithinRatio(got, want, eps float64) bool {
	if want == 0 {
		return got <= eps
	}
	return got >= want/(1+eps) && got <= want*(1+eps)
}

// RelErr returns |got-want| / max(|want|, tiny); it is used for reporting,
// not for pass/fail decisions.
func RelErr(got, want float64) float64 {
	den := math.Abs(want)
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Abs(got-want) / den
}

// Sum returns the Kahan-compensated sum of xs. Volume decompositions add
// many signed terms of similar magnitude, where naive summation loses
// digits.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or 0 when fewer
// than two observations are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var acc float64
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(n-1)
}

// Median returns the median of xs (the lower median for even lengths),
// or 0 for an empty slice. The input is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sort.Float64s(cp)
	return cp[(n-1)/2]
}

// BallVolume returns the Lebesgue volume of the d-dimensional Euclidean
// ball of radius r: pi^{d/2} r^d / Gamma(d/2 + 1).
func BallVolume(d int, r float64) float64 {
	if d < 0 {
		return 0
	}
	if d == 0 {
		return 1
	}
	lg, _ := math.Lgamma(float64(d)/2 + 1)
	logV := float64(d)/2*math.Log(math.Pi) + float64(d)*math.Log(r) - lg
	return math.Exp(logV)
}

// CubeVolume returns the volume of the d-cube of side s.
func CubeVolume(d int, s float64) float64 { return math.Pow(s, float64(d)) }

// SimplexVolume returns the volume of the standard simplex
// {x : x_i >= 0, sum x_i <= s} in dimension d: s^d / d!.
func SimplexVolume(d int, s float64) float64 {
	lg, _ := math.Lgamma(float64(d) + 1)
	return math.Exp(float64(d)*math.Log(s) - lg)
}

// CrossPolytopeVolume returns the volume of the l1-ball of radius r in
// dimension d: (2r)^d / d!.
func CrossPolytopeVolume(d int, r float64) float64 {
	lg, _ := math.Lgamma(float64(d) + 1)
	return math.Exp(float64(d)*math.Log(2*r) - lg)
}

// EllipsoidVolume returns the volume of the axis-aligned ellipsoid with
// semi-axes axes: BallVolume(d,1) * prod(axes).
func EllipsoidVolume(axes []float64) float64 {
	v := BallVolume(len(axes), 1)
	for _, a := range axes {
		v *= a
	}
	return v
}

// Binomial returns C(n, k) as a float64 (exact for the small arguments
// used by the inclusion-exclusion volume code).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return res
}
