// Package imaging provides the image substrate for the CrawlerBox
// reproduction: an RGB raster type, geometric and photometric operations
// (bilinear scaling, cropping, additive noise, CSS-style hue rotation), a
// deterministic 5x7 bitmap font with a matching OCR decoder, and the two
// perceptual hashes the paper uses to classify spear-phishing screenshots
// (DCT-based pHash and difference-based dHash).
//
// The hue-rotation operation reproduces the client-side evasion found on 167
// phishing pages (Section V-C2d): a filter: hue-rotate(4deg) applied to the
// whole document to defeat visual-similarity detectors. Because both hashes
// operate on grayscale, the rotation leaves them essentially unchanged —
// exactly the robustness argument the paper makes for CrawlerBox.
package imaging

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// RGB is an 8-bit-per-channel color.
type RGB struct {
	R, G, B uint8
}

// Common colors used by page renderers.
var (
	White = RGB{255, 255, 255}
	Black = RGB{0, 0, 0}
)

// Image is a simple packed RGB raster.
type Image struct {
	W, H int
	Pix  []RGB
}

// ErrBadDimensions is returned when constructing an image with non-positive
// width or height.
var ErrBadDimensions = errors.New("imaging: width and height must be positive")

// New returns a w x h image filled with the given color.
func New(w, h int, fill RGB) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDimensions, w, h)
	}
	img := &Image{W: w, H: h, Pix: make([]RGB, w*h)}
	if fill != (RGB{}) {
		fillRGB(img.Pix, fill)
	}
	return img, nil
}

// fillRGB sets every element of dst to c. It stores c into a short prefix
// and then doubles the filled prefix with copy, so a long fill costs
// O(log n) memmove calls instead of n three-byte stores.
func fillRGB(dst []RGB, c RGB) {
	n := min(len(dst), 16)
	for i := range dst[:n] {
		dst[i] = c
	}
	for ; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// MustNew is New for statically valid dimensions; it panics on error and is
// intended for tests and fixed-size internal buffers.
func MustNew(w, h int, fill RGB) *Image {
	img, err := New(w, h, fill)
	if err != nil {
		panic(err)
	}
	return img
}

// In reports whether (x, y) lies inside the image.
func (m *Image) In(x, y int) bool {
	return x >= 0 && x < m.W && y >= 0 && y < m.H
}

// At returns the pixel at (x, y); out-of-bounds reads return White.
func (m *Image) At(x, y int) RGB {
	if !m.In(x, y) {
		return White
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (m *Image) Set(x, y int, c RGB) {
	if m.In(x, y) {
		m.Pix[y*m.W+x] = c
	}
}

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Pix: make([]RGB, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// FillRect fills the rectangle [x0,x1) x [y0,y1) with c, clipped to bounds.
// An empty or inverted rectangle fills nothing. The first clipped row is
// filled in bulk and copied into the rows below it.
func (m *Image) FillRect(x0, y0, x1, y1 int, c RGB) {
	x0, y0 = max(0, x0), max(0, y0)
	x1, y1 = min(m.W, x1), min(m.H, y1)
	if x1 <= x0 || y1 <= y0 {
		return
	}
	first := m.Pix[y0*m.W+x0 : y0*m.W+x1]
	fillRGB(first, c)
	for y := y0 + 1; y < y1; y++ {
		copy(m.Pix[y*m.W+x0:y*m.W+x1], first)
	}
}

// Gray returns the luma (ITU-R BT.601) of the pixel at (x, y) in [0, 255].
func (m *Image) Gray(x, y int) float64 {
	return luma(m.At(x, y))
}

// Resize returns a bilinear-resampled copy with the given dimensions.
func (m *Image) Resize(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDimensions, w, h)
	}
	out := &Image{W: w, H: h, Pix: make([]RGB, w*h)}
	xr := float64(m.W) / float64(w)
	yr := float64(m.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := (float64(y)+0.5)*yr - 0.5
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		y1 := y0 + 1
		y0 = clamp(y0, 0, m.H-1)
		y1 = clamp(y1, 0, m.H-1)
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)*xr - 0.5
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			x1 := x0 + 1
			x0 = clamp(x0, 0, m.W-1)
			x1 = clamp(x1, 0, m.W-1)
			c00 := m.Pix[y0*m.W+x0]
			c10 := m.Pix[y0*m.W+x1]
			c01 := m.Pix[y1*m.W+x0]
			c11 := m.Pix[y1*m.W+x1]
			out.Pix[y*w+x] = RGB{
				R: lerp2(c00.R, c10.R, c01.R, c11.R, fx, fy),
				G: lerp2(c00.G, c10.G, c01.G, c11.G, fx, fy),
				B: lerp2(c00.B, c10.B, c01.B, c11.B, fx, fy),
			}
		}
	}
	return out, nil
}

// ResizeBox returns an area-averaged (box filter) downsample with the given
// dimensions. Unlike point-sampled bilinear resizing, every source pixel
// contributes, which strongly attenuates per-pixel noise — the property the
// perceptual hashes rely on.
func (m *Image) ResizeBox(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDimensions, w, h)
	}
	out := &Image{W: w, H: h, Pix: make([]RGB, w*h)}
	for y := 0; y < h; y++ {
		sy0 := y * m.H / h
		sy1 := (y + 1) * m.H / h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		for x := 0; x < w; x++ {
			sx0 := x * m.W / w
			sx1 := (x + 1) * m.W / w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			// Accumulate in integers: channel sums are exact in both int
			// and float64 (well under 2^53), so dividing once at the end
			// yields bit-identical results to float accumulation while
			// skipping three conversions per source pixel.
			var r, g, b, n int
			for sy := sy0; sy < sy1 && sy < m.H; sy++ {
				row := m.Pix[sy*m.W+sx0 : sy*m.W+min(sx1, m.W)]
				for _, c := range row {
					r += int(c.R)
					g += int(c.G)
					b += int(c.B)
				}
				n += len(row)
			}
			if n == 0 {
				n = 1
			}
			fn := float64(n)
			out.Pix[y*w+x] = RGB{
				R: clampU8(int(math.Round(float64(r) / fn))),
				G: clampU8(int(math.Round(float64(g) / fn))),
				B: clampU8(int(math.Round(float64(b) / fn))),
			}
		}
	}
	return out, nil
}

// AddNoise perturbs every channel by a uniform value in [-amplitude,
// +amplitude], clamped to [0, 255]. It mutates the image in place.
func (m *Image) AddNoise(rng *rand.Rand, amplitude int) {
	if amplitude <= 0 {
		return
	}
	for i := range m.Pix {
		m.Pix[i] = RGB{
			R: clampU8(int(m.Pix[i].R) + rng.Intn(2*amplitude+1) - amplitude),
			G: clampU8(int(m.Pix[i].G) + rng.Intn(2*amplitude+1) - amplitude),
			B: clampU8(int(m.Pix[i].B) + rng.Intn(2*amplitude+1) - amplitude),
		}
	}
}

// HueRotate applies the SVG/CSS hue-rotate(degrees) color matrix in place —
// the exact filter threat actors inject into phishing pages to perturb
// visual-similarity detectors. Rendered pages are mostly flat, so a run of
// equal pixels is converted once and filled; every pixel still gets the
// matrix product of its own input.
func (m *Image) HueRotate(degrees float64) {
	rad := degrees * math.Pi / 180
	cosA, sinA := math.Cos(rad), math.Sin(rad)
	// Coefficients from the SVG feColorMatrix hueRotate specification.
	a00 := 0.213 + cosA*0.787 - sinA*0.213
	a01 := 0.715 - cosA*0.715 - sinA*0.715
	a02 := 0.072 - cosA*0.072 + sinA*0.928
	a10 := 0.213 - cosA*0.213 + sinA*0.143
	a11 := 0.715 + cosA*0.285 + sinA*0.140
	a12 := 0.072 - cosA*0.072 - sinA*0.283
	a20 := 0.213 - cosA*0.213 - sinA*0.787
	a21 := 0.715 - cosA*0.715 + sinA*0.715
	a22 := 0.072 + cosA*0.928 + sinA*0.072
	for i := 0; i < len(m.Pix); {
		c := m.Pix[i]
		j := i + 1
		for j < len(m.Pix) && m.Pix[j] == c {
			j++
		}
		r := float64(c.R)
		g := float64(c.G)
		b := float64(c.B)
		fillRGB(m.Pix[i:j], RGB{
			R: clampU8(int(math.Round(a00*r + a01*g + a02*b))),
			G: clampU8(int(math.Round(a10*r + a11*g + a12*b))),
			B: clampU8(int(math.Round(a20*r + a21*g + a22*b))),
		})
		i = j
	}
}

// Equal reports whether two images have identical dimensions and pixels.
func (m *Image) Equal(other *Image) bool {
	if m.W != other.W || m.H != other.H {
		return false
	}
	for i := range m.Pix {
		if m.Pix[i] != other.Pix[i] {
			return false
		}
	}
	return true
}

func lerp2(c00, c10, c01, c11 uint8, fx, fy float64) uint8 {
	top := float64(c00)*(1-fx) + float64(c10)*fx
	bot := float64(c01)*(1-fx) + float64(c11)*fx
	return clampU8(int(math.Round(top*(1-fy) + bot*fy)))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampU8(v int) uint8 {
	return uint8(clamp(v, 0, 255))
}
