package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"pair", []float64{1, 3}, 2},
		{"negative", []float64{-2, 2, -4, 4}, 0},
		{"fractional", []float64{1, 2}, 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: sum of squares = 32, n-1 = 7.
	wantVar := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, wantVar, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, wantVar)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(wantVar), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(wantVar))
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name    string
		xs      []float64
		want    float64
		wantErr bool
	}{
		{"empty", nil, 0, true},
		{"odd", []float64{3, 1, 2}, 2, false},
		{"even", []float64{4, 1, 3, 2}, 2.5, false},
		{"repeated", []float64{1, 1, 1, 9}, 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Median(tt.xs)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Median(%v) error = %v, wantErr = %v", tt.xs, err, tt.wantErr)
			}
			if err == nil && !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Median(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestKurtosisNormalIsNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k, err := Kurtosis(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k) > 0.2 {
		t.Errorf("excess kurtosis of normal sample = %v, want ~0", k)
	}
}

func TestKurtosisFatTails(t *testing.T) {
	// An exponential distribution has excess kurtosis 6; a fat-tailed
	// sample must report a clearly positive value, as the paper's
	// timedelta distributions do (8.4 and 6.8).
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	k, err := Kurtosis(xs)
	if err != nil {
		t.Fatal(err)
	}
	if k < 4 || k > 9 {
		t.Errorf("excess kurtosis of exponential sample = %v, want ~6", k)
	}
}

func TestKurtosisErrors(t *testing.T) {
	if _, err := Kurtosis([]float64{1, 2, 3}); err == nil {
		t.Error("Kurtosis of 3 samples should error")
	}
	if _, err := Kurtosis([]float64{5, 5, 5, 5}); err == nil {
		t.Error("Kurtosis of constant sample should error")
	}
}

func TestPairedTTestKnownValue(t *testing.T) {
	// Classic example: identical samples shifted by a constant plus noise.
	a := []float64{10, 12, 9, 11, 14, 8, 13, 10, 12, 11}
	b := []float64{8, 11, 7, 9, 12, 7, 11, 9, 10, 10}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 9 {
		t.Errorf("DF = %d, want 9", res.DF)
	}
	if res.MeanDif <= 0 {
		t.Errorf("MeanDif = %v, want positive", res.MeanDif)
	}
	// All differences are 1 or 2 -> strongly significant.
	if res.P > 0.001 {
		t.Errorf("p = %v, want < 0.001", res.P)
	}
}

func TestPairedTTestNoDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		base := rng.NormFloat64()
		a[i] = base + rng.NormFloat64()*0.5
		b[i] = base + rng.NormFloat64()*0.5
	}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("p = %v for same-distribution pairs, want large", res.P)
	}
}

func TestPairedTTestErrors(t *testing.T) {
	if _, err := PairedTTest([]float64{1, 2}, []float64{1}); err != ErrLengthMismatch {
		t.Errorf("mismatched lengths: err = %v, want ErrLengthMismatch", err)
	}
	if _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair should error")
	}
	if _, err := PairedTTest([]float64{1, 2, 3}, []float64{0, 1, 2}); err == nil {
		t.Error("constant differences should error (zero variance)")
	}
}

func TestPaperT_Test2023vs2024Shape(t *testing.T) {
	// Monthly counts in the shape of the paper's two years: 2023 months are
	// systematically higher (mean 885.2) than 2024 (mean 518.1). The test
	// must find a significant difference, mirroring the reported p = 0.008.
	y2023 := []float64{1100, 950, 780, 820, 600, 560, 540, 1959, 1533, 1249}
	y2024 := []float64{1050, 690, 580, 520, 430, 390, 360, 450, 370, 340}
	res, err := PairedTTest(y2023, y2024)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= 0.05 {
		t.Errorf("p = %v, want < 0.05 (paper rejects null at alpha=0.05)", res.P)
	}
}

func TestStudentTAgainstKnownQuantiles(t *testing.T) {
	// For df=10, P(T > 2.228) ~= 0.025 (the 97.5th percentile).
	p := studentTCDFUpper(2.228, 10)
	if !almostEqual(p, 0.025, 0.001) {
		t.Errorf("P(T>2.228 | df=10) = %v, want ~0.025", p)
	}
	// For df=1 (Cauchy), P(T > 1) = 0.25.
	p = studentTCDFUpper(1, 1)
	if !almostEqual(p, 0.25, 0.002) {
		t.Errorf("P(T>1 | df=1) = %v, want 0.25", p)
	}
}

func TestHammingDistance64(t *testing.T) {
	tests := []struct {
		a, b uint64
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, math.MaxUint64, 64},
		{0b1010, 0b0101, 4},
		{0xFF00, 0x00FF, 16},
	}
	for _, tt := range tests {
		if got := HammingDistance64(tt.a, tt.b); got != tt.want {
			t.Errorf("HammingDistance64(%#x, %#x) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestHammingSymmetryProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		d := HammingDistance64(a, b)
		return d == HammingDistance64(b, a) && d >= 0 && d <= 64 &&
			(d == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingTriangleInequalityProperty(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return HammingDistance64(a, c) <= HammingDistance64(a, b)+HammingDistance64(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
