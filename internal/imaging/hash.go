package imaging

import (
	"math"
	"slices"

	"crawlerbox/internal/stats"
)

// phashSide is the downsample side length of the DCT-based perceptual hash.
const phashSide = 32

// phashCos is the DCT-II cosine kernel for a phashSide-point transform,
// precomputed once at package init. Rebuilding it per PHash call (1024
// math.Cos evaluations and an 8 KiB allocation) used to dominate the
// hash's allocation profile; the kernel depends only on the transform
// size, so it is hoisted to package level and shared by every call.
var phashCos [phashSide * phashSide]float64

func init() {
	for k := 0; k < phashSide; k++ {
		for n := 0; n < phashSide; n++ {
			phashCos[k*phashSide+n] = math.Cos(math.Pi * float64(k) * (2*float64(n) + 1) / (2 * phashSide))
		}
	}
}

// phashLow is the side of the low-frequency DCT block pHash thresholds.
const phashLow = 8

// dhashW and dhashH are the dHash grid: one more column than bits per row,
// so each of the 8x8 bits compares a cell with its right neighbour.
const (
	dhashW = phashLow + 1
	dhashH = phashLow
)

// PHash computes a 64-bit DCT-based perceptual hash: the image is resized to
// 32x32 grayscale, transformed with a 2D DCT-II, and the 8x8 lowest
// frequencies (excluding the DC term for the median) are thresholded at
// their median. Robust to scaling, mild cropping, noise, and — because it
// discards chroma — to the hue-rotate evasion.
func PHash(img *Image) uint64 {
	return Sign(img).PHash
}

// phashOf is PHash over an already downsampled 32x32 grid.
func phashOf(small *[phashSide * phashSide]RGB) uint64 {
	var gray [phashSide * phashSide]float64
	for i, c := range small {
		gray[i] = luma(c)
	}
	var freq [phashLow * phashLow]float64
	dct2d(&gray, &freq)
	// Collect the 8x8 block, skipping the DC coefficient, and threshold at
	// the median (the 32nd order statistic of 63 values).
	var coeffs [phashLow*phashLow - 1]float64
	copy(coeffs[:], freq[1:])
	slices.Sort(coeffs[:])
	med := coeffs[31]
	var hash uint64
	for bit, f := range freq {
		if bit != 0 && f > med {
			hash |= 1 << uint(bit)
		}
	}
	return hash
}

// DHash computes a 64-bit difference hash: resize to 9x8 grayscale and set a
// bit when a pixel is brighter than its right neighbor.
func DHash(img *Image) uint64 {
	return Sign(img).DHash
}

// dhashOf is DHash over an already downsampled 9x8 grid.
func dhashOf(small *[dhashW * dhashH]RGB) uint64 {
	// The dead zone keeps flat regions stable under additive noise: after
	// box averaging, residual noise is well below 2 luma levels, while real
	// content edges differ by far more.
	const deadZone = 2.0
	var hash uint64
	bit := 0
	for y := 0; y < dhashH; y++ {
		row := small[y*dhashW : (y+1)*dhashW]
		for x := 0; x < dhashW-1; x++ {
			if luma(row[x]) > luma(row[x+1])+deadZone {
				hash |= 1 << uint(bit)
			}
			bit++
		}
	}
	return hash
}

// luma is the ITU-R BT.601 luma of c in [0, 255].
func luma(c RGB) float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// FuzzyMatcher combines pHash and dHash with per-hash Hamming thresholds,
// reproducing CrawlerBox's spear-phishing screenshot classifier: an image
// matches a reference page only when BOTH hashes agree within threshold,
// which the paper reports performing better than either hash alone.
type FuzzyMatcher struct {
	// PHashMax and DHashMax are the maximum Hamming distances (inclusive)
	// at which the corresponding hash still counts as a match.
	PHashMax int
	DHashMax int
}

// DefaultMatcher returns the thresholds used by the pipeline. They are
// deliberately tight — the paper tunes its threshold to detect only the five
// protected login pages.
func DefaultMatcher() FuzzyMatcher {
	return FuzzyMatcher{PHashMax: 10, DHashMax: 12}
}

// Signature is the pair of fuzzy hashes for one screenshot.
type Signature struct {
	PHash uint64
	DHash uint64
}

// Sign computes both hashes for an image. Both start from box-filtered
// grids, 32x32 for pHash and 9x8 for dHash, as ResizeBox computes them.
// For an image of at least 32x32, boxGrids fills both in one pass over
// the pixels; smaller images, which the grids upsample, go through
// ResizeBox. The working buffers are
// fixed-size stack arrays and the cosine kernel is the package-level
// phashCos table, so the one-pass route makes no heap allocation.
func Sign(img *Image) Signature {
	var p [phashSide * phashSide]RGB
	var d [dhashW * dhashH]RGB
	if img.W >= phashSide && img.H >= phashSide {
		boxGrids(img, &p, &d)
	} else {
		// ResizeBox fails only on a non-positive target size, and these
		// are constants.
		small, _ := img.ResizeBox(phashSide, phashSide)
		copy(p[:], small.Pix)
		small, _ = img.ResizeBox(dhashW, dhashH)
		copy(d[:], small.Pix)
	}
	return Signature{PHash: phashOf(&p), DHash: dhashOf(&d)}
}

// Match reports whether two signatures are similar under both thresholds,
// along with the individual distances.
func (fm FuzzyMatcher) Match(a, b Signature) (bool, int, int) {
	dp := stats.HammingDistance64(a.PHash, b.PHash)
	dd := stats.HammingDistance64(a.DHash, b.DHash)
	return dp <= fm.PHashMax && dd <= fm.DHashMax, dp, dd
}

// dct2d computes the phashLow x phashLow lowest-frequency block of the 2D
// DCT-II of a phashSide x phashSide block, using the separable row-column
// method against the package-level cosine kernel. PHash reads only that
// block, so the row pass stops at frequency phashLow and the column pass
// runs over the first phashLow columns. Each coefficient it does compute
// is the same sequence of multiplies and adds, in the same order, as in
// the full 32x32 transform, so out[k*phashLow+x] is bit-identical to the
// full transform's coefficient (k, x). The eight sums of a pass advance
// together, one term each per step, so that they do not wait on one
// another; that changes no sum's own order.
func dct2d(data *[phashSide * phashSide]float64, out *[phashLow * phashLow]float64) {
	const side = phashSide
	// Rows: tmp[y*phashLow+k] is frequency k of row y.
	var tmp [side * phashLow]float64
	for y := 0; y < side; y++ {
		row := (*[side]float64)(data[y*side : (y+1)*side])
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for n, v := range row {
			s0 += v * phashCos[0*side+n]
			s1 += v * phashCos[1*side+n]
			s2 += v * phashCos[2*side+n]
			s3 += v * phashCos[3*side+n]
			s4 += v * phashCos[4*side+n]
			s5 += v * phashCos[5*side+n]
			s6 += v * phashCos[6*side+n]
			s7 += v * phashCos[7*side+n]
		}
		t := (*[phashLow]float64)(tmp[y*phashLow : (y+1)*phashLow])
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	// Columns: frequency k of column x of tmp.
	for k := 0; k < phashLow; k++ {
		cos := (*[side]float64)(phashCos[k*side : (k+1)*side])
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for n, c := range cos {
			t := (*[phashLow]float64)(tmp[n*phashLow : (n+1)*phashLow])
			s0 += t[0] * c
			s1 += t[1] * c
			s2 += t[2] * c
			s3 += t[3] * c
			s4 += t[4] * c
			s5 += t[5] * c
			s6 += t[6] * c
			s7 += t[7] * c
		}
		o := (*[phashLow]float64)(out[k*phashLow : (k+1)*phashLow])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}
