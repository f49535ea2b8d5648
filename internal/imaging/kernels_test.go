package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests: every optimised raster kernel against its per-pixel
// reference in reference_test.go, on page-like and random images of
// awkward sizes. Equality is exact — pixels, hash bits, and the float bits
// of DCT coefficients.

func randRGB(rng *rand.Rand) RGB {
	return RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
}

// _edgeSides are the dimensions most likely to break a kernel: 1, the
// grid sizes and their neighbours, and the screenshot size.
var _edgeSides = []int{1, 2, 7, 8, 9, 10, 31, 32, 33, 63, 64, 65, 191, 192, 193, 255, 256, 257}

// _wideSide bounds the random image widths: well past the screenshot
// width, so that Sign's grids cover many pixels per cell.
const _wideSide = 1100

func randomSide(rng *rand.Rand, limit int) int {
	if rng.Intn(2) == 0 {
		if s := _edgeSides[rng.Intn(len(_edgeSides))]; s <= limit {
			return s
		}
	}
	return 1 + rng.Intn(limit)
}

// randomImage draws a page-like image: a background, flat rectangles
// (clipped, empty and inverted ones included), a line of glyphs, rows
// repeated from the row above with at most one pixel changed, and
// optionally noise, in colours mostly from a small palette.
func randomImage(rng *rand.Rand, w, h int) *Image {
	palette := []RGB{White, Black, randRGB(rng), randRGB(rng)}
	pick := func() RGB {
		if rng.Intn(4) == 0 {
			return randRGB(rng)
		}
		return palette[rng.Intn(len(palette))]
	}
	img := refNew(w, h, pick())
	for i := rng.Intn(12); i > 0; i-- {
		refFillRect(img, rng.Intn(w+4)-2, rng.Intn(h+4)-2, rng.Intn(w+4)-2, rng.Intn(h+4)-2, pick())
	}
	if rng.Intn(2) == 0 {
		DrawText(img, rng.Intn(w), rng.Intn(h), "SIGN IN TO 0NEDRIVE", pick())
	}
	switch rng.Intn(4) {
	case 0:
		for i := range img.Pix {
			img.Pix[i] = randRGB(rng)
		}
	case 1:
		y0 := rng.Intn(h)
		for i := y0 * w; i < min(len(img.Pix), (y0+1+rng.Intn(8))*w); i++ {
			img.Pix[i] = randRGB(rng)
		}
	}
	for y := 1; y < h; y++ {
		if rng.Intn(3) == 0 {
			copy(img.Pix[y*w:(y+1)*w], img.Pix[(y-1)*w:y*w])
			if rng.Intn(2) == 0 {
				img.Pix[y*w+rng.Intn(w)] = pick()
			}
		}
	}
	return img
}

func samePixels(t *testing.T, what string, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H || len(got.Pix) != len(want.Pix) {
		t.Fatalf("%s: got %dx%d (%d px), want %dx%d (%d px)", what, got.W, got.H, len(got.Pix), want.W, want.H, len(want.Pix))
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel (%d,%d) = %v, want %v", what, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

func checkNewAndFillRect(t *testing.T, w, h int, fill RGB, rect [4]int, c RGB) {
	t.Helper()
	got := MustNew(w, h, fill)
	want := refNew(w, h, fill)
	samePixels(t, fmt.Sprintf("New(%d, %d, %v)", w, h, fill), got, want)
	got.FillRect(rect[0], rect[1], rect[2], rect[3], c)
	refFillRect(want, rect[0], rect[1], rect[2], rect[3], c)
	samePixels(t, fmt.Sprintf("%dx%d FillRect%v", w, h, rect), got, want)
}

func TestNewAndFillRectMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		w, h := randomSide(rng, 300), randomSide(rng, 300)
		fill := randRGB(rng)
		if i%5 == 0 {
			fill = RGB{} // the zero colour New leaves to make
		}
		rect := [4]int{rng.Intn(w+20) - 10, rng.Intn(h+20) - 10, rng.Intn(w+20) - 10, rng.Intn(h+20) - 10}
		checkNewAndFillRect(t, w, h, fill, rect, randRGB(rng))
	}
}

func TestFillRectEdgeCases(t *testing.T) {
	c := RGB{R: 1, G: 2, B: 3}
	for name, rect := range map[string][4]int{
		"full canvas":       {0, 0, 17, 9},
		"beyond every edge": {-5, -5, 100, 100},
		"empty width":       {4, 2, 4, 8},
		"empty height":      {2, 4, 8, 4},
		"inverted":          {10, 8, 3, 1},
		"left of canvas":    {-9, 0, -1, 9},
		"below canvas":      {0, 9, 17, 20},
		"single pixel":      {16, 8, 17, 9},
		"single column":     {3, -2, 4, 50},
		"clipped corner":    {-3, -3, 2, 2},
	} {
		t.Run(name, func(t *testing.T) {
			checkNewAndFillRect(t, 17, 9, White, rect, c)
		})
	}
}

func TestBoxGridsMatchResizeBox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 150; i++ {
		w, h := phashSide+rng.Intn(_wideSide-phashSide+1), phashSide+rng.Intn(300)
		if i%3 == 0 {
			w, h = max(phashSide, randomSide(rng, _wideSide)), max(phashSide, randomSide(rng, 300))
		}
		img := randomImage(rng, w, h)
		var p [phashSide * phashSide]RGB
		var d [dhashW * dhashH]RGB
		boxGrids(img, &p, &d)
		samePixels(t, fmt.Sprintf("%dx%d 32x32 grid", w, h), &Image{W: phashSide, H: phashSide, Pix: p[:]}, refResizeBox(img, phashSide, phashSide))
		samePixels(t, fmt.Sprintf("%dx%d 9x8 grid", w, h), &Image{W: dhashW, H: dhashH, Pix: d[:]}, refResizeBox(img, dhashW, dhashH))
	}
}

func checkSign(t *testing.T, img *Image) {
	t.Helper()
	want := Signature{PHash: refPHash(img), DHash: refDHash(img)}
	if got := Sign(img); got != want {
		t.Fatalf("%dx%d: Sign = %#x/%#x, reference %#x/%#x", img.W, img.H, got.PHash, got.DHash, want.PHash, want.DHash)
	}
	if got := PHash(img); got != want.PHash {
		t.Fatalf("%dx%d: PHash = %#x, reference %#x", img.W, img.H, got, want.PHash)
	}
	if got := DHash(img); got != want.DHash {
		t.Fatalf("%dx%d: DHash = %#x, reference %#x", img.W, img.H, got, want.DHash)
	}
}

func TestSignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		checkSign(t, randomImage(rng, randomSide(rng, _wideSide), randomSide(rng, 300)))
	}
	// Upsampling on one axis only, and the smallest image.
	checkSign(t, randomImage(rng, 1, 1))
	checkSign(t, randomImage(rng, 500, 5))
	checkSign(t, randomImage(rng, 5, 500))
}

func checkDCT(t *testing.T, gray *[phashSide * phashSide]float64) {
	t.Helper()
	var low [phashLow * phashLow]float64
	dct2d(gray, &low)
	full := refDCT2D(gray)
	for k := 0; k < phashLow; k++ {
		for x := 0; x < phashLow; x++ {
			got, want := low[k*phashLow+x], full[k*phashSide+x]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("coefficient (%d,%d) = %v, reference %v", k, x, got, want)
			}
		}
	}
}

func TestDCTLowBlockMatchesFullTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		var gray [phashSide * phashSide]float64
		for j := range gray {
			switch i % 3 {
			case 0: // luma of a random colour, as PHash feeds it
				c := randRGB(rng)
				gray[j] = 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
			case 1: // arbitrary finite values
				gray[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-4))
			default: // flat with sparse spikes
				if rng.Intn(10) == 0 {
					gray[j] = 255
				}
			}
		}
		checkDCT(t, &gray)
	}
}

func checkHueRotate(t *testing.T, img *Image, degrees float64) {
	t.Helper()
	got, want := img.Clone(), img.Clone()
	got.HueRotate(degrees)
	refHueRotate(want, degrees)
	samePixels(t, fmt.Sprintf("%dx%d HueRotate(%v)", img.W, img.H, degrees), got, want)
}

func TestHueRotateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		degrees := []float64{0, 4, -4, 90, 180, 360, 725}[rng.Intn(7)]
		if i%2 == 0 {
			degrees = (rng.Float64() - 0.5) * 1000
		}
		checkHueRotate(t, randomImage(rng, randomSide(rng, 300), randomSide(rng, 300)), degrees)
	}
	checkHueRotate(t, &Image{}, 4)
}

func FuzzNewFillRect(f *testing.F) {
	f.Add(uint8(17), uint8(9), int16(-3), int16(2), int16(5), int16(40), uint32(0xffffff), uint32(0x102030))
	f.Add(uint8(0), uint8(0), int16(0), int16(0), int16(1), int16(1), uint32(0), uint32(0))
	f.Add(uint8(255), uint8(3), int16(300), int16(2), int16(-300), int16(1), uint32(0x0a0b0c), uint32(0xffffff))
	f.Fuzz(func(t *testing.T, w, h uint8, x0, y0, x1, y1 int16, fill, c uint32) {
		rgb := func(v uint32) RGB { return RGB{R: uint8(v >> 16), G: uint8(v >> 8), B: uint8(v)} }
		checkNewAndFillRect(t, int(w)+1, int(h)+1, rgb(fill), [4]int{int(x0), int(y0), int(x1), int(y1)}, rgb(c))
	})
}

func FuzzSign(f *testing.F) {
	f.Add(uint16(256), uint16(192), int64(1))
	f.Add(uint16(1), uint16(1), int64(2))
	f.Add(uint16(33), uint16(1000), int64(3))
	f.Add(uint16(1025), uint16(40), int64(4))
	f.Fuzz(func(t *testing.T, w, h uint16, seed int64) {
		img := randomImage(rand.New(rand.NewSource(seed)), int(w)%_wideSide+1, int(h)%400+1)
		checkSign(t, img)
	})
}

func FuzzDCT(f *testing.F) {
	f.Add(int64(1), 255.0)
	f.Add(int64(2), 1e-300)
	f.Add(int64(3), -1e300)
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e300 {
			t.Skip("coefficients must stay finite")
		}
		rng := rand.New(rand.NewSource(seed))
		var gray [phashSide * phashSide]float64
		for j := range gray {
			gray[j] = rng.Float64() * scale
		}
		checkDCT(t, &gray)
	})
}

func FuzzHueRotate(f *testing.F) {
	f.Add(uint16(256), uint16(192), int64(1), 4.0)
	f.Add(uint16(1), uint16(1), int64(2), -360.5)
	f.Add(uint16(300), uint16(2), int64(3), 1e9)
	f.Fuzz(func(t *testing.T, w, h uint16, seed int64, degrees float64) {
		if math.IsNaN(degrees) || math.IsInf(degrees, 0) {
			t.Skip("the CSS filter takes a finite angle")
		}
		checkHueRotate(t, randomImage(rand.New(rand.NewSource(seed)), int(w)%400+1, int(h)%400+1), degrees)
	})
}

// TestSignDoesNotAllocate pins the one-pass route's stack-only working set:
// Sign runs once per screenshot, so a grid or scratch buffer that escaped
// to the heap would show up in every crawled message's allocations.
func TestSignDoesNotAllocate(t *testing.T) {
	img := randomImage(rand.New(rand.NewSource(6)), 256, 192)
	if allocs := testing.AllocsPerRun(20, func() { Sign(img) }); allocs != 0 {
		t.Errorf("Sign allocated %v times per call, want 0", allocs)
	}
}
