package qrcode

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"crawlerbox/internal/imaging"
)

func TestGFMultiplication(t *testing.T) {
	gf := newGFTables()
	tests := []struct {
		a, b, want byte
	}{
		{0, 5, 0},
		{5, 0, 0},
		{1, 7, 7},
		{2, 2, 4},
		{0x80, 2, 0x1D}, // overflow reduces by the QR polynomial
	}
	for _, tt := range tests {
		if got := gf.mul(tt.a, tt.b); got != tt.want {
			t.Errorf("mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestGFMulDivInverseProperty(t *testing.T) {
	gf := newGFTables()
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gf.div(gf.mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFMulCommutativeAssociative(t *testing.T) {
	gf := newGFTables()
	f := func(a, b, c byte) bool {
		return gf.mul(a, b) == gf.mul(b, a) &&
			gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRSEncodeKnownVector(t *testing.T) {
	// The canonical "HELLO WORLD" v1-M test vector from the QR tutorial
	// literature: data codewords below produce these 10 EC codewords.
	gf := newGFTables()
	data := []byte{
		0x20, 0x5B, 0x0B, 0x78, 0xD1, 0x72, 0xDC, 0x4D,
		0x43, 0x40, 0xEC, 0x11, 0xEC, 0x11, 0xEC, 0x11,
	}
	want := []byte{0xC4, 0x23, 0x27, 0x77, 0xEB, 0xD7, 0xE7, 0xE2, 0x5D, 0x17}
	got := gf.rsEncode(data, 10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rsEncode codeword %d = %#x, want %#x (full: %x)", i, got[i], want[i], got)
		}
	}
}

func TestRSDecodeCorrectsErrors(t *testing.T) {
	gf := newGFTables()
	data := []byte("CRAWLERBOX TEST BLOCK 01")
	ec := gf.rsEncode(data, 16) // corrects up to 8 byte errors
	msg := append(append([]byte{}, data...), ec...)

	rng := rand.New(rand.NewSource(42))
	for numErrs := 0; numErrs <= 8; numErrs++ {
		corrupted := append([]byte{}, msg...)
		positions := rng.Perm(len(msg))[:numErrs]
		for _, p := range positions {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		n, err := gf.rsDecode(corrupted, 16)
		if err != nil {
			t.Fatalf("%d errors: rsDecode failed: %v", numErrs, err)
		}
		if n != numErrs {
			t.Errorf("%d errors: corrected %d", numErrs, n)
		}
		if string(corrupted[:len(data)]) != string(data) {
			t.Fatalf("%d errors: data not restored: %q", numErrs, corrupted[:len(data)])
		}
	}
}

func TestRSDecodeRejectsTooManyErrors(t *testing.T) {
	gf := newGFTables()
	data := []byte("ANOTHER BLOCK OF DATA HERE")
	ec := gf.rsEncode(data, 8) // corrects up to 4
	msg := append(append([]byte{}, data...), ec...)
	rng := rand.New(rand.NewSource(9))
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte{}, msg...)
		for _, p := range rng.Perm(len(msg))[:7] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		if _, err := gf.rsDecode(corrupted, 8); err != nil {
			failures++
		} else if string(corrupted[:len(data)]) != string(data) {
			// A silent mis-correction would be a real bug; beyond-capacity
			// noise must either error or be a (vanishingly unlikely) true fix.
			failures++
		}
	}
	if failures < trials {
		t.Errorf("only %d/%d over-capacity corruptions were rejected", failures, trials)
	}
}

func TestRSEncodeDecodeProperty(t *testing.T) {
	gf := newGFTables()
	f := func(raw []byte, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 60 {
			raw = raw[:60]
		}
		const ecLen = 14
		ec := gf.rsEncode(raw, ecLen)
		msg := append(append([]byte{}, raw...), ec...)
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(ecLen/2 + 1)
		for _, p := range rng.Perm(len(msg))[:n] {
			msg[p] ^= byte(1 + rng.Intn(255))
		}
		if _, err := gf.rsDecode(msg, ecLen); err != nil {
			return false
		}
		return string(msg[:len(raw)]) == string(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChooseMode(t *testing.T) {
	tests := []struct {
		payload string
		want    Mode
	}{
		{"0123456789", ModeNumeric},
		{"HELLO WORLD", ModeAlphanumeric},
		{"HTTP://X.COM/A", ModeAlphanumeric},
		{"https://evil-site.com/", ModeByte},
		{"ABC abc", ModeByte},
		{"", ModeAlphanumeric},
	}
	for _, tt := range tests {
		if got := ChooseMode(tt.payload); got != tt.want {
			t.Errorf("ChooseMode(%q) = %v, want %v", tt.payload, got, tt.want)
		}
	}
}

func TestFormatInfoKnownValue(t *testing.T) {
	// Published reference: level M (00), mask 5 -> 0x40CE after masking.
	if got := formatInfo(ECMedium, 5); got != 0x40CE {
		t.Errorf("formatInfo(M, 5) = %#x, want 0x40CE", got)
	}
}

func TestVersionInfoKnownValue(t *testing.T) {
	// Published reference: version 7 -> 0x07C94.
	if got := versionInfo(7); got != 0x07C94 {
		t.Errorf("versionInfo(7) = %#x, want 0x07C94", got)
	}
}

func TestEncodeDecodeMatrixRoundTrip(t *testing.T) {
	payloads := []string{
		"https://evil-site.com/dhfYWfH",
		"HELLO WORLD",
		"0123456789012345",
		"xxx https://evil-site.com/",
		"[https://evil-site.com/",
		"https://login.acmetravel-verify.buzz/session?id=Zm9vYmFy&t=8jD2kQ",
		strings.Repeat("https://long.example/path", 4), // forces a higher version
	}
	for _, payload := range payloads {
		for _, level := range []ECLevel{ECLow, ECMedium, ECQuartile, ECHigh} {
			m, err := Encode(payload, level)
			if err != nil {
				t.Fatalf("Encode(%q, %v): %v", payload, level, err)
			}
			dec, err := DecodeMatrix(m)
			if err != nil {
				t.Fatalf("DecodeMatrix(%q, %v): %v", payload, level, err)
			}
			if dec.Payload != payload {
				t.Fatalf("round trip (%v) = %q, want %q", level, dec.Payload, payload)
			}
			if dec.Level != level {
				t.Errorf("decoded level = %v, want %v", dec.Level, level)
			}
			if dec.Version != m.Version {
				t.Errorf("decoded version = %d, want %d", dec.Version, m.Version)
			}
			if dec.Corrected != 0 {
				t.Errorf("clean matrix reported %d corrections", dec.Corrected)
			}
		}
	}
}

func TestEncodeVersionSelection(t *testing.T) {
	short, err := Encode("HI", ECLow)
	if err != nil {
		t.Fatal(err)
	}
	if short.Version != 1 {
		t.Errorf("tiny payload chose version %d, want 1", short.Version)
	}
	long, err := Encode(strings.Repeat("x", 200), ECLow)
	if err != nil {
		t.Fatal(err)
	}
	if long.Version < 7 {
		t.Errorf("200-byte payload chose version %d, want >= 7 (exercises version info)", long.Version)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	_, err := Encode(strings.Repeat("x", 400), ECHigh)
	if err == nil {
		t.Fatal("encoding 400 bytes at level H should exceed version 10")
	}
}

func TestEncodeInvalidLevel(t *testing.T) {
	if _, err := Encode("x", ECLevel(0)); err == nil {
		t.Error("invalid EC level should error")
	}
	if _, err := Encode("x", ECLevel(9)); err == nil {
		t.Error("invalid EC level should error")
	}
}

func TestDecodeMatrixWithModuleDamage(t *testing.T) {
	// Flip random data modules; level H tolerates ~30% codeword damage.
	payload := "https://evil-site.com/dhfYWfH"
	m, err := Encode(payload, ECHigh)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	damaged := m.Clone()
	// Flip 12 random modules away from the function-pattern regions.
	flipped := 0
	for flipped < 12 {
		x := rng.Intn(m.Size-18) + 9
		y := rng.Intn(m.Size-18) + 9
		damaged.Modules[y*m.Size+x] = !damaged.Modules[y*m.Size+x]
		flipped++
	}
	dec, err := DecodeMatrix(damaged)
	if err != nil {
		t.Fatalf("decode with module damage: %v", err)
	}
	if dec.Payload != payload {
		t.Fatalf("payload = %q, want %q", dec.Payload, payload)
	}
	if dec.Corrected == 0 {
		t.Error("expected nonzero corrections")
	}
}

func TestDecodeMatrixInvalidSize(t *testing.T) {
	m := &Matrix{Size: 20, Modules: make([]bool, 400)}
	if _, err := DecodeMatrix(m); err == nil {
		t.Error("size 20 should be rejected")
	}
	m = &Matrix{Size: 17 + 4*11, Modules: make([]bool, (17+44)*(17+44))}
	if _, err := DecodeMatrix(m); err == nil {
		t.Error("version 11 should be rejected as unsupported")
	}
}

// TestDecodeMatrixShapeMismatch is the regression for the taintflow finding:
// a matrix whose Modules slice disagrees with Size*Size must be rejected, not
// indexed out of range.
func TestDecodeMatrixShapeMismatch(t *testing.T) {
	for _, m := range []*Matrix{
		{Size: 21, Modules: nil},
		{Size: 21, Modules: make([]bool, 21*21-1)},
		{Size: 25, Modules: make([]bool, 21*21)},
	} {
		if _, err := DecodeMatrix(m); err == nil {
			t.Errorf("size %d with %d modules should be rejected", m.Size, len(m.Modules))
		}
	}
}

// TestDecodeImageMalformedRaster is the regression for the taintflow finding
// in the image path: rasters whose Pix disagrees with W*H (the shape hostile
// CBI bytes can produce) must fail cleanly before any buffer is sized.
func TestDecodeImageMalformedRaster(t *testing.T) {
	for _, img := range []*imaging.Image{
		nil,
		{W: 40, H: 40, Pix: nil},
		{W: -1, H: 40, Pix: make([]imaging.RGB, 1600)},
		{W: 40, H: 40, Pix: make([]imaging.RGB, 39*40)},
	} {
		if _, err := DecodeImage(img); err == nil {
			t.Errorf("malformed raster %+v should not decode", img)
		}
	}
}

func TestDecodeGarbageMatrixFails(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := &Matrix{Size: 25, Modules: make([]bool, 625)}
	for i := range m.Modules {
		m.Modules[i] = rng.Intn(2) == 0
	}
	if _, err := DecodeMatrix(m); err == nil {
		t.Error("random noise should not decode")
	}
}

func TestRenderAndDecodeImage(t *testing.T) {
	payloads := []string{
		"https://evil-site.com/dhfYWfH",
		"xxx https://evil-site.com/",
		"HELLO WORLD 123",
	}
	for _, payload := range payloads {
		for _, scale := range []int{3, 4, 6} {
			m, err := Encode(payload, ECMedium)
			if err != nil {
				t.Fatal(err)
			}
			img, err := Render(m, scale, 4)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeImage(img)
			if err != nil {
				t.Fatalf("DecodeImage(%q, scale %d): %v", payload, scale, err)
			}
			if dec.Payload != payload {
				t.Errorf("image round trip = %q, want %q", dec.Payload, payload)
			}
		}
	}
}

func TestDecodeImageWithNoise(t *testing.T) {
	payload := "https://phish.ru/Zm9vYmFy"
	m, err := Encode(payload, ECQuartile)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Render(m, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	img.AddNoise(rng, 60)
	dec, err := DecodeImage(img)
	if err != nil {
		t.Fatalf("DecodeImage with noise: %v", err)
	}
	if dec.Payload != payload {
		t.Errorf("noisy image round trip = %q, want %q", dec.Payload, payload)
	}
}

func TestDecodeImageOffsetPlacement(t *testing.T) {
	// The QR code is pasted off-center into a larger message image,
	// as it would be inside an email screenshot.
	payload := "https://evil-site.com/q"
	m, err := Encode(payload, ECMedium)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := Render(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	canvas := imaging.MustNew(400, 300, imaging.White)
	const offX, offY = 170, 60
	for y := 0; y < qr.H; y++ {
		for x := 0; x < qr.W; x++ {
			canvas.Set(offX+x, offY+y, qr.At(x, y))
		}
	}
	dec, err := DecodeImage(canvas)
	if err != nil {
		t.Fatalf("DecodeImage offset: %v", err)
	}
	if dec.Payload != payload {
		t.Errorf("offset round trip = %q, want %q", dec.Payload, payload)
	}
}

func TestDecodeImageNoCode(t *testing.T) {
	img := imaging.MustNew(100, 100, imaging.White)
	if _, err := DecodeImage(img); err == nil {
		t.Error("blank image should not decode")
	}
}

func TestRenderRejectsBadScale(t *testing.T) {
	m, err := Encode("x", ECLow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Render(m, 0, 2); err == nil {
		t.Error("zero scale should error")
	}
}

func TestMaskPatternsDiffer(t *testing.T) {
	// All eight masks must produce distinct transformations of at least
	// one module in a 4x4 region.
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			same := true
			for y := 0; y < 6 && same; y++ {
				for x := 0; x < 6 && same; x++ {
					if maskBit(a, x, y) != maskBit(b, x, y) {
						same = false
					}
				}
			}
			if same {
				t.Errorf("masks %d and %d identical on a 6x6 region", a, b)
			}
		}
	}
}

func TestMatrixStructuralInvariants(t *testing.T) {
	m, err := Encode("https://structure.example/check", ECMedium)
	if err != nil {
		t.Fatal(err)
	}
	size := m.Size
	// Finder cores must be dark; centers of rings light.
	for _, c := range [][2]int{{3, 3}, {size - 4, 3}, {3, size - 4}} {
		if !m.At(c[0], c[1]) {
			t.Errorf("finder center (%d,%d) not dark", c[0], c[1])
		}
	}
	// Timing pattern alternates.
	for i := 8; i < size-8; i++ {
		want := i%2 == 0
		if m.At(i, 6) != want {
			t.Errorf("horizontal timing at %d = %v, want %v", i, m.At(i, 6), want)
		}
		if m.At(6, i) != want {
			t.Errorf("vertical timing at %d = %v, want %v", i, m.At(6, i), want)
		}
	}
	// Dark module present.
	if !m.At(8, size-8) {
		t.Error("dark module missing")
	}
}

func TestEncodeDecodePropertyRandomPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:/.-_?=&"
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(120)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		payload := string(b)
		level := ECLevel(1 + rng.Intn(4))
		m, err := Encode(payload, level)
		if err != nil {
			t.Fatalf("Encode(%q, %v): %v", payload, level, err)
		}
		dec, err := DecodeMatrix(m)
		if err != nil {
			t.Fatalf("DecodeMatrix(%q, %v): %v", payload, level, err)
		}
		if dec.Payload != payload {
			t.Fatalf("round trip = %q, want %q", dec.Payload, payload)
		}
	}
}

// TestIsDarkMatchesFloatLuma checks the integer dark test against the
// float luma for every one of the 2^24 colours.
func TestIsDarkMatchesFloatLuma(t *testing.T) {
	for v := 0; v < 1<<24; v++ {
		c := imaging.RGB{R: uint8(v >> 16), G: uint8(v >> 8), B: uint8(v)}
		if got, want := isDark(c), grayOf(c) < 128; got != want {
			t.Fatalf("isDark(%v) = %v, grayOf = %v", c, got, grayOf(c))
		}
	}
}
