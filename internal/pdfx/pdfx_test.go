package pdfx

import (
	"bytes"
	"compress/zlib"
	"runtime"
	"strings"
	"testing"

	"crawlerbox/internal/imaging"
	"crawlerbox/internal/qrcode"
)

func buildSimpleDoc() *Document {
	return &Document{Pages: []Page{{
		TextLines: []string{
			"Dear customer,",
			"Your invoice is overdue. Visit https://pay-invoice.example/now",
		},
		LinkURIs: []string{"https://evil-site.com/dhfYWfH"},
	}}}
}

func TestBuildParseRoundTripUncompressed(t *testing.T) {
	data := Build(buildSimpleDoc(), false)
	if !bytes.HasPrefix(data, []byte("%PDF-1.4")) {
		t.Fatal("missing PDF header")
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.LinkURIs) != 1 || parsed.LinkURIs[0] != "https://evil-site.com/dhfYWfH" {
		t.Errorf("LinkURIs = %v", parsed.LinkURIs)
	}
	joined := strings.Join(parsed.TextLines, "\n")
	if !strings.Contains(joined, "https://pay-invoice.example/now") {
		t.Errorf("text lines missing URL: %q", joined)
	}
}

func TestBuildParseRoundTripCompressed(t *testing.T) {
	data := Build(buildSimpleDoc(), true)
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(parsed.TextLines, "\n")
	if !strings.Contains(joined, "https://pay-invoice.example/now") {
		t.Errorf("compressed text lines missing URL: %q", joined)
	}
	if len(parsed.LinkURIs) != 1 {
		t.Errorf("LinkURIs = %v", parsed.LinkURIs)
	}
}

// A content stream compressed by a reused zlib writer is the stream a new
// writer makes, whatever the writer compressed before.
func TestCompressedStreamIndependentOfWriterReuse(t *testing.T) {
	doc := buildSimpleDoc()
	var want bytes.Buffer
	zw := zlib.NewWriter(&want)
	_, _ = zw.Write(buildContentStream(doc.Pages[0], nil))
	_ = zw.Close()
	other := &Document{Pages: []Page{{TextLines: []string{strings.Repeat("a much longer page of other text ", 200)}}}}
	for i := 0; i < 3; i++ {
		Build(other, true)
		if got := Build(doc, true); !bytes.Contains(got, want.Bytes()) {
			t.Fatalf("build %d: the compressed content stream differs from a new zlib writer's", i)
		}
	}
}

// Idle zlib writers survive garbage collection: after two collections,
// which empty a sync.Pool, a compressed build still allocates far less
// than the compressor a new zlib writer needs.
func TestZlibWritersSurviveGC(t *testing.T) {
	doc := buildSimpleDoc()
	Build(doc, true)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Build(doc, true)
	runtime.ReadMemStats(&after)
	const budget = 64 << 10 // a new compressor allocates more than ten times this
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("a compressed build after GC allocated %d B, want at most %d: its zlib writer was not reused", got, budget)
	}
}

func TestEscapedParensRoundTrip(t *testing.T) {
	doc := &Document{Pages: []Page{{
		TextLines: []string{`weird (paren) line \ with backslash`},
		LinkURIs:  []string{"https://x.example/a(b)c"},
	}}}
	parsed, err := Parse(Build(doc, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.TextLines) == 0 || !strings.Contains(parsed.TextLines[0], "(paren)") {
		t.Errorf("TextLines = %q", parsed.TextLines)
	}
	if len(parsed.LinkURIs) != 1 || parsed.LinkURIs[0] != "https://x.example/a(b)c" {
		t.Errorf("LinkURIs = %v", parsed.LinkURIs)
	}
}

func TestMultiPage(t *testing.T) {
	doc := &Document{Pages: []Page{
		{TextLines: []string{"page one"}, LinkURIs: []string{"https://a.example/1"}},
		{TextLines: []string{"page two"}, LinkURIs: []string{"https://b.example/2"}},
	}}
	parsed, err := Parse(Build(doc, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.LinkURIs) != 2 {
		t.Errorf("LinkURIs = %v", parsed.LinkURIs)
	}
	joined := strings.Join(parsed.TextLines, " ")
	if !strings.Contains(joined, "page one") || !strings.Contains(joined, "page two") {
		t.Errorf("TextLines = %q", parsed.TextLines)
	}
}

func TestEmbeddedImageRoundTrip(t *testing.T) {
	img := imaging.MustNew(40, 30, imaging.RGB{R: 10, G: 200, B: 30})
	img.FillRect(5, 5, 15, 15, imaging.Black)
	doc := &Document{Pages: []Page{{
		TextLines: []string{"scan the code below"},
		Images:    []PlacedImage{{X: 100, Y: 200, Img: img}},
	}}}
	parsed, err := Parse(Build(doc, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Images) != 1 {
		t.Fatalf("Images = %d", len(parsed.Images))
	}
	if !parsed.Images[0].Equal(img) {
		t.Error("embedded image not recovered bit-exact")
	}
}

func TestQRInPDFEndToEnd(t *testing.T) {
	// The full attack shape: a QR code with a phishing URL embedded in a
	// PDF attachment. The pipeline must recover the URL from the image.
	payload := "https://evil-site.com/dhfYWfH"
	m, err := qrcode.Encode(payload, qrcode.ECMedium)
	if err != nil {
		t.Fatal(err)
	}
	qrImg, err := qrcode.Render(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	doc := &Document{Pages: []Page{{
		TextLines: []string{"Please scan to verify your account"},
		Images:    []PlacedImage{{X: 200, Y: 300, Img: qrImg}},
	}}}
	parsed, err := Parse(Build(doc, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Images) != 1 {
		t.Fatalf("Images = %d", len(parsed.Images))
	}
	dec, err := qrcode.DecodeImage(parsed.Images[0])
	if err != nil {
		t.Fatalf("QR decode from parsed PDF image: %v", err)
	}
	if dec.Payload != payload {
		t.Errorf("payload = %q, want %q", dec.Payload, payload)
	}
}

func TestParseRejectsNonPDF(t *testing.T) {
	if _, err := Parse([]byte("not a pdf")); err == nil {
		t.Error("non-PDF input should fail")
	}
	if _, err := Parse([]byte("%PDF-1.4\njust a header")); err == nil {
		t.Error("PDF with no objects should fail")
	}
}

func TestParseTruncatedPDF(t *testing.T) {
	data := Build(buildSimpleDoc(), false)
	// Cut the trailer and xref off; object scanning must still recover.
	cut := bytes.Index(data, []byte("xref"))
	if cut < 0 {
		t.Fatal("no xref in built PDF")
	}
	parsed, err := Parse(data[:cut])
	if err != nil {
		t.Fatalf("truncated parse: %v", err)
	}
	if len(parsed.LinkURIs) != 1 {
		t.Errorf("LinkURIs from truncated PDF = %v", parsed.LinkURIs)
	}
}

func TestParseCorruptFlateStreamSkipped(t *testing.T) {
	data := Build(buildSimpleDoc(), true)
	// Corrupt the middle of the compressed stream.
	idx := bytes.Index(data, []byte("stream\n"))
	if idx < 0 {
		t.Fatal("no stream found")
	}
	corrupted := append([]byte{}, data...)
	for i := idx + 20; i < idx+30 && i < len(corrupted); i++ {
		corrupted[i] ^= 0xFF
	}
	parsed, err := Parse(corrupted)
	if err != nil {
		t.Fatalf("corrupt stream must degrade, not fail: %v", err)
	}
	// URIs live outside the stream and must survive.
	if len(parsed.LinkURIs) != 1 {
		t.Errorf("LinkURIs = %v", parsed.LinkURIs)
	}
}

func TestReadPDFString(t *testing.T) {
	tests := []struct {
		src    string
		want   string
		wantOK bool
	}{
		{"(hello)", "hello", true},
		{`(a\(b\)c)`, "a(b)c", true},
		{"(nested (parens) ok)", "nested (parens) ok", true},
		{`(line\nbreak)`, "line\nbreak", true},
		{"(unterminated", "", false},
		{"nostring", "", false},
	}
	for _, tt := range tests {
		got, ok := readPDFString(tt.src)
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("readPDFString(%q) = (%q, %v), want (%q, %v)", tt.src, got, ok, tt.want, tt.wantOK)
		}
	}
}
