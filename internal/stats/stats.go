// Package stats provides the statistical estimators used throughout the
// CrawlerBox reproduction: central moments (mean, variance, kurtosis), the
// median, a paired-samples t-test, and Hamming distance on bit strings.
//
// The paper reports a handful of specific statistics that these functions
// regenerate: monthly message means and standard deviations (Figure 2), the
// paired t-test between the 2023 and 2024 monthly series (p = 0.008), the
// kurtosis of the deployment-timeline distributions (8.4 and 6.8 for
// timedeltaA and timedeltaB), and medians of DNS query volumes.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by estimators that are undefined on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLengthMismatch is returned by paired tests when the two samples have
// different lengths.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// Samples of size < 2 have zero variance by convention.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2], nil
	}
	return (cp[n/2-1] + cp[n/2]) / 2, nil
}

// Kurtosis returns the sample excess kurtosis of xs using the standard
// bias-corrected estimator (the same one SciPy reports with fisher=true and
// bias=false). Fat-tailed distributions such as the paper's deployment
// timelines yield large positive values (8.4 and 6.8 in the paper).
func Kurtosis(xs []float64) (float64, error) {
	n := float64(len(xs))
	if n < 4 {
		return 0, fmt.Errorf("stats: kurtosis needs >= 4 samples, have %d", len(xs))
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0, errors.New("stats: kurtosis undefined for zero-variance sample")
	}
	g2 := m4/(m2*m2) - 3
	// Bias correction.
	k := ((n+1)*g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
	return k, nil
}

// TTestResult holds the outcome of a paired-samples t-test.
type TTestResult struct {
	T       float64 // t statistic
	DF      int     // degrees of freedom (n - 1)
	P       float64 // two-tailed p-value
	MeanA   float64
	MeanB   float64
	MeanDif float64
}

// PairedTTest runs a paired-samples (dependent) two-tailed t-test between a
// and b. The paper applies this to the 2023 vs 2024 monthly phishing counts
// and reports p = 0.008.
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, ErrLengthMismatch
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, fmt.Errorf("stats: paired t-test needs >= 2 pairs, have %d", n)
	}
	diffs := make([]float64, n)
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	md := Mean(diffs)
	sd := StdDev(diffs)
	if sd == 0 {
		return TTestResult{}, errors.New("stats: paired t-test undefined for zero-variance differences")
	}
	t := md / (sd / math.Sqrt(float64(n)))
	df := n - 1
	p := 2 * studentTCDFUpper(math.Abs(t), float64(df))
	return TTestResult{
		T:       t,
		DF:      df,
		P:       p,
		MeanA:   Mean(a),
		MeanB:   Mean(b),
		MeanDif: md,
	}, nil
}

// studentTCDFUpper returns P(T > t) for Student's t distribution with df
// degrees of freedom, via the regularized incomplete beta function.
func studentTCDFUpper(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion from Numerical Recipes.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	// Lentz's algorithm for the continued fraction.
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-30
	)
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= maxIter; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x / ((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -(a + float64(m)) * (a + b + float64(m)) * x / ((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// HammingDistance64 returns the number of differing bits between two 64-bit
// hashes, used to compare pHash/dHash values.
func HammingDistance64(a, b uint64) int {
	return bits.OnesCount64(a ^ b)
}

// IntsToFloats converts an int slice to float64 for use with the estimators.
func IntsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
