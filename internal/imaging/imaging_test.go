package imaging

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"crawlerbox/internal/stats"
)

func TestNewAndBounds(t *testing.T) {
	img, err := New(10, 5, White)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 10 || img.H != 5 || len(img.Pix) != 50 {
		t.Fatalf("unexpected geometry: %dx%d len=%d", img.W, img.H, len(img.Pix))
	}
	if !img.In(0, 0) || !img.In(9, 4) || img.In(10, 0) || img.In(0, 5) || img.In(-1, 0) {
		t.Error("In() bounds incorrect")
	}
	if img.At(100, 100) != White {
		t.Error("out-of-bounds At should return White")
	}
	img.Set(100, 100, Black) // must not panic
}

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 5}} {
		if _, err := New(dims[0], dims[1], White); err == nil {
			t.Errorf("New(%d, %d) should error", dims[0], dims[1])
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	img := MustNew(4, 4, White)
	img.Set(2, 3, RGB{10, 20, 30})
	if got := img.At(2, 3); got != (RGB{10, 20, 30}) {
		t.Errorf("At(2,3) = %+v", got)
	}
}

func TestFillRectClips(t *testing.T) {
	img := MustNew(4, 4, White)
	img.FillRect(-5, -5, 2, 2, Black)
	if img.At(0, 0) != Black || img.At(1, 1) != Black {
		t.Error("FillRect did not fill in-bounds region")
	}
	if img.At(2, 2) != White {
		t.Error("FillRect overfilled")
	}
}

func TestCloneIndependence(t *testing.T) {
	img := MustNew(3, 3, White)
	cp := img.Clone()
	cp.Set(1, 1, Black)
	if img.At(1, 1) != White {
		t.Error("Clone shares pixel storage")
	}
	if !img.Equal(img.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestGray(t *testing.T) {
	img := MustNew(1, 1, RGB{255, 255, 255})
	if g := img.Gray(0, 0); g < 254.9 || g > 255.1 {
		t.Errorf("white gray = %v, want 255", g)
	}
	img.Set(0, 0, Black)
	if g := img.Gray(0, 0); g != 0 {
		t.Errorf("black gray = %v, want 0", g)
	}
}

func TestResizePreservesFlatColor(t *testing.T) {
	img := MustNew(16, 16, RGB{100, 150, 200})
	small, err := img.Resize(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range small.Pix {
		if p != (RGB{100, 150, 200}) {
			t.Fatalf("pixel %d = %+v after resize of flat image", i, p)
		}
	}
	if _, err := img.Resize(0, 4); err == nil {
		t.Error("Resize(0,4) should error")
	}
}

func TestHueRotateZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := MustNew(8, 8, White)
	img.AddNoise(rng, 80)
	cp := img.Clone()
	cp.HueRotate(0)
	// Rounding can nudge values by at most 1.
	for i := range img.Pix {
		if absDiff(img.Pix[i].R, cp.Pix[i].R) > 1 ||
			absDiff(img.Pix[i].G, cp.Pix[i].G) > 1 ||
			absDiff(img.Pix[i].B, cp.Pix[i].B) > 1 {
			t.Fatalf("HueRotate(0) changed pixel %d: %+v -> %+v", i, img.Pix[i], cp.Pix[i])
		}
	}
}

func TestHueRotateChangesChromaNotLuma(t *testing.T) {
	img := MustNew(1, 1, RGB{200, 40, 40})
	before := img.Gray(0, 0)
	img.HueRotate(90)
	after := img.Gray(0, 0)
	if img.At(0, 0) == (RGB{200, 40, 40}) {
		t.Error("HueRotate(90) left a saturated pixel unchanged")
	}
	if diff := before - after; diff > 40 || diff < -40 {
		t.Errorf("luma moved too much: %v -> %v", before, after)
	}
}

func TestAddNoiseStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	img := MustNew(16, 16, RGB{250, 5, 128})
	img.AddNoise(rng, 20)
	// All values are valid uint8 by construction; just ensure mutation.
	var changed bool
	for _, p := range img.Pix {
		if p != (RGB{250, 5, 128}) {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("AddNoise changed nothing")
	}
	cp := img.Clone()
	img.AddNoise(rng, 0)
	if !img.Equal(cp) {
		t.Error("AddNoise(0) must be a no-op")
	}
}

func TestDrawTextAndWidth(t *testing.T) {
	img := MustNew(200, 20, White)
	n := DrawText(img, 2, 2, "HELLO", Black)
	if n != 5 {
		t.Errorf("drew %d glyphs, want 5", n)
	}
	if TextWidth("HELLO") != 5*AdvanceX-GlyphGap {
		t.Errorf("TextWidth = %d", TextWidth("HELLO"))
	}
	if TextWidth("") != 0 {
		t.Error("TextWidth of empty string should be 0")
	}
	// Some ink must exist.
	var ink int
	for _, p := range img.Pix {
		if p == Black {
			ink++
		}
	}
	if ink == 0 {
		t.Error("DrawText produced no ink")
	}
}

// TestOCRMalformedRaster is the regression for the taintflow finding: an
// image whose Pix disagrees with W*H (reachable from hostile CBI bytes via
// the parse path) must return nothing, not size a buffer from the bad W*H.
func TestOCRMalformedRaster(t *testing.T) {
	for _, img := range []*Image{
		nil,
		{W: 10, H: 7, Pix: nil},
		{W: 10, H: 7, Pix: make([]RGB, 69)},
		{W: -3, H: 7, Pix: make([]RGB, 21)},
	} {
		if got := OCR(img, 0.9); got != nil {
			t.Errorf("OCR on malformed raster %+v = %q, want nil", img, got)
		}
	}
}

func TestOCRRoundTrip(t *testing.T) {
	tests := []string{
		"HELLO WORLD",
		"HTTPS://EVIL-SITE.COM/DHFYWFH",
		"SIGN IN TO YOUR ACCOUNT",
		"HTTP://A.B.C/X?Q=1&Z=2#F",
		"USER@EXAMPLE.COM",
		"0123456789",
	}
	for _, text := range tests {
		t.Run(text, func(t *testing.T) {
			img := MustNew(TextWidth(text)+8, GlyphH+8, White)
			DrawText(img, 4, 4, text, Black)
			lines := OCR(img, 0.95)
			if len(lines) != 1 || lines[0] != text {
				t.Errorf("OCR = %q, want [%q]", lines, text)
			}
		})
	}
}

func TestOCRLowercaseNormalizes(t *testing.T) {
	img := MustNew(300, 20, White)
	DrawText(img, 4, 4, "https://evil.com", Black)
	lines := OCR(img, 0.95)
	if len(lines) != 1 || lines[0] != "HTTPS://EVIL.COM" {
		t.Errorf("OCR = %q, want uppercase round-trip", lines)
	}
}

func TestOCRMultiline(t *testing.T) {
	img := MustNew(300, 60, White)
	DrawText(img, 4, 4, "LINE ONE\nHTTPS://X.COM/A", Black)
	lines := OCR(img, 0.95)
	if len(lines) != 2 {
		t.Fatalf("OCR lines = %q, want 2", lines)
	}
	if lines[0] != "LINE ONE" || lines[1] != "HTTPS://X.COM/A" {
		t.Errorf("OCR = %q", lines)
	}
}

func TestOCRWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := "HTTPS://PHISH.RU/TOKEN"
	img := MustNew(TextWidth(text)+10, GlyphH+10, White)
	DrawText(img, 5, 5, text, Black)
	img.AddNoise(rng, 40) // well below the binarization threshold
	lines := OCR(img, 0.9)
	if len(lines) != 1 || lines[0] != text {
		t.Errorf("noisy OCR = %q, want [%q]", lines, text)
	}
}

func TestOCREmptyImage(t *testing.T) {
	img := MustNew(50, 20, White)
	if lines := OCR(img, 0.9); len(lines) != 0 {
		t.Errorf("OCR of blank image = %q, want none", lines)
	}
}

// renderFakeLoginPage draws a deterministic synthetic login page used by the
// hash robustness tests; variant changes the header text and layout slightly.
func renderFakeLoginPage(brand string, accent RGB) *Image {
	img := MustNew(256, 192, White)
	img.FillRect(0, 0, 256, 28, accent)
	DrawText(img, 8, 10, brand, White)
	img.FillRect(48, 60, 208, 76, RGB{230, 230, 230})
	DrawText(img, 52, 64, "EMAIL", Black)
	img.FillRect(48, 90, 208, 106, RGB{230, 230, 230})
	DrawText(img, 52, 94, "PASSWORD", Black)
	img.FillRect(48, 120, 208, 140, accent)
	DrawText(img, 104, 126, "SIGN IN", White)
	return img
}

func TestPHashIdenticalImages(t *testing.T) {
	a := renderFakeLoginPage("ACME TRAVEL", RGB{20, 60, 160})
	b := renderFakeLoginPage("ACME TRAVEL", RGB{20, 60, 160})
	if PHash(a) != PHash(b) || DHash(a) != DHash(b) {
		t.Error("identical renders must hash identically")
	}
}

func TestHashesRobustToHueRotate(t *testing.T) {
	// The paper's finding: hue-rotate(4deg) does not defeat grayscale fuzzy
	// hashes. Distances must stay within the matcher thresholds.
	a := renderFakeLoginPage("ACME TRAVEL", RGB{20, 60, 160})
	b := a.Clone()
	b.HueRotate(4)
	m := DefaultMatcher()
	ok, dp, dd := m.Match(Sign(a), Sign(b))
	if !ok {
		t.Errorf("hue-rotate(4deg) broke the match: pHash dist=%d dHash dist=%d", dp, dd)
	}
}

func TestHashesRobustToNoiseAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := renderFakeLoginPage("ACME TRAVEL", RGB{20, 60, 160})
	noisy := a.Clone()
	noisy.AddNoise(rng, 12)
	scaled, err := a.Resize(200, 150)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMatcher()
	if ok, dp, dd := m.Match(Sign(a), Sign(noisy)); !ok {
		t.Errorf("noise broke match: pHash=%d dHash=%d", dp, dd)
	}
	if ok, dp, dd := m.Match(Sign(a), Sign(scaled)); !ok {
		t.Errorf("scaling broke match: pHash=%d dHash=%d", dp, dd)
	}
}

func TestHashesDistinguishDifferentPages(t *testing.T) {
	login := renderFakeLoginPage("ACME TRAVEL", RGB{20, 60, 160})
	other := MustNew(256, 192, White)
	// A totally different layout: dark page with scattered blocks.
	other.FillRect(0, 0, 256, 192, RGB{30, 30, 30})
	other.FillRect(10, 10, 60, 180, White)
	other.FillRect(200, 20, 250, 90, RGB{200, 0, 0})
	DrawText(other, 80, 90, "404 NOT FOUND", White)
	m := DefaultMatcher()
	if ok, dp, dd := m.Match(Sign(login), Sign(other)); ok {
		t.Errorf("distinct pages matched: pHash=%d dHash=%d", dp, dd)
	}
}

func TestFuzzyMatcherThresholdBehavior(t *testing.T) {
	m := FuzzyMatcher{PHashMax: 0, DHashMax: 0}
	a := Signature{PHash: 1, DHash: 1}
	b := Signature{PHash: 1, DHash: 1}
	if ok, _, _ := m.Match(a, b); !ok {
		t.Error("zero-distance signatures must match at zero thresholds")
	}
	c := Signature{PHash: 3, DHash: 1} // 1 bit apart on pHash
	if ok, _, _ := m.Match(a, c); ok {
		t.Error("1-bit pHash difference must fail a zero threshold")
	}
}

func TestSignatureDistancesSymmetric(t *testing.T) {
	f := func(p1, d1, p2, d2 uint64) bool {
		a := Signature{PHash: p1, DHash: d1}
		b := Signature{PHash: p2, DHash: d2}
		m := DefaultMatcher()
		ok1, dp1, dd1 := m.Match(a, b)
		ok2, dp2, dd2 := m.Match(b, a)
		return ok1 == ok2 && dp1 == dp2 && dd1 == dd2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPHashBitCountSanity(t *testing.T) {
	// By median thresholding, roughly half of the 63 AC bits should be set
	// for a non-degenerate image.
	img := renderFakeLoginPage("ACME TRAVEL", RGB{20, 60, 160})
	h := PHash(img)
	n := stats.HammingDistance64(h, 0)
	if n < 20 || n > 44 {
		t.Errorf("pHash popcount = %d, want ~31", n)
	}
}

func TestOCRRecoversURLForPipeline(t *testing.T) {
	// End-to-end shape check: a rendered URL must survive OCR and remain
	// recognizable as a URL after lowercasing (the parser lowercases hosts).
	text := "HTTPS://LOGIN-VERIFY.BUZZ/ABC123"
	img := MustNew(TextWidth(text)+10, 40, White)
	DrawText(img, 5, 12, text, Black)
	lines := OCR(img, 0.93)
	if len(lines) != 1 {
		t.Fatalf("OCR lines = %v", lines)
	}
	if !strings.HasPrefix(strings.ToLower(lines[0]), "https://") {
		t.Errorf("recovered text %q is not a URL", lines[0])
	}
}

func absDiff(a, b uint8) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}
