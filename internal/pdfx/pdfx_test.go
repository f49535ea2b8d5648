package pdfx

import (
	"bytes"
	"compress/zlib"
	"runtime"
	"strings"
	"sync"
	"testing"

	"crawlerbox/internal/imaging"
	"crawlerbox/internal/qrcode"
)

// inflateMax is the cap the tests give Parse: the budget of decompressed
// bytes the pipeline gives one message.
const inflateMax = 8 << 20

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
	parsed, err := Parse(data, inflateMax)
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
	parsed, err := Parse(data, inflateMax)
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
	parsed, err := Parse(Build(doc, false), inflateMax)
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
	parsed, err := Parse(Build(doc, true), inflateMax)
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
	parsed, err := Parse(Build(doc, false), inflateMax)
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
	parsed, err := Parse(Build(doc, true), inflateMax)
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
	if _, err := Parse([]byte("not a pdf"), inflateMax); err == nil {
		t.Error("non-PDF input should fail")
	}
	if _, err := Parse([]byte("%PDF-1.4\njust a header"), inflateMax); err == nil {
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
	parsed, err := Parse(data[:cut], inflateMax)
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
	parsed, err := Parse(corrupted, inflateMax)
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

// flatePDF returns a one-object PDF whose content stream is content,
// Flate-compressed, next to a link annotation.
func flatePDF(content []byte) []byte {
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	_, _ = zw.Write(content)
	_ = zw.Close()
	return []byte("%PDF-1.4\n1 0 obj\n<< /Filter /FlateDecode /URI (https://annot.example/a) >>\nstream\n" +
		z.String() + "\nendstream\nendobj\n")
}

// A stream that inflates past the cap is skipped like a corrupt one,
// the rest of the document is still read, and the cap is spent; a stream
// of exactly the cap is read.
func TestParseInflateCap(t *testing.T) {
	content := []byte("BT (https://in-stream.example/x) Tj ET")
	data := flatePDF(content)
	for _, tc := range []struct {
		max      int
		wantText bool
	}{
		{len(content), true},
		{len(content) - 1, false},
		{0, false},
	} {
		parsed, err := Parse(data, tc.max)
		if err != nil {
			t.Fatalf("cap %d: %v", tc.max, err)
		}
		if got := len(parsed.TextLines) == 1; got != tc.wantText {
			t.Errorf("cap %d: text lines %q, want the stream read: %v", tc.max, parsed.TextLines, tc.wantText)
		}
		if len(parsed.LinkURIs) != 1 {
			t.Errorf("cap %d: LinkURIs = %v, want the annotation", tc.max, parsed.LinkURIs)
		}
		if parsed.Inflated != tc.max {
			t.Errorf("cap %d: Inflated = %d, want the whole cap spent", tc.max, parsed.Inflated)
		}
	}
}

// A reused zlib reader inflates what a new one does, after a corrupt
// stream too, and an idle one allocates no new decompressor: inflating a
// small stream again allocates far less than the decompressor's 32 KiB
// window.
func TestInflaterReuse(t *testing.T) {
	data := Build(buildSimpleDoc(), true)
	want, err := Parse(data, inflateMax)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{flatePDF(nil)[:60], []byte("%PDF-1.4\n1 0 obj\n<< /Filter /FlateDecode >>\nstream\nxx\nendstream\nendobj\n")} {
		_, _ = Parse(bad, inflateMax)
		got, err := Parse(data, inflateMax)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got.TextLines, "\n") != strings.Join(want.TextLines, "\n") || got.Inflated != want.Inflated {
			t.Fatalf("after a corrupt stream: text %q (%d B inflated), want %q (%d B)",
				got.TextLines, got.Inflated, want.TextLines, want.Inflated)
		}
	}
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	_, _ = zw.Write([]byte("BT (https://in-stream.example/x) Tj ET"))
	_ = zw.Close()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := inflate(z.Bytes(), inflateMax); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Errorf("an inflate allocated %d B, want at most %d: its zlib reader was not reused", per, 4<<10)
	}
	select {
	case in := <-inflaters:
		if in.src.Size() != 0 {
			t.Errorf("the idle inflater still reads a %d-byte stream", in.src.Size())
		}
		putInflater(in)
	default:
		t.Error("no idle inflater after a parse")
	}
}

// Parses running at once share the idle inflater without a race and each
// inflate what a lone parse does.
func TestInflaterConcurrent(t *testing.T) {
	docs := [][]byte{Build(buildSimpleDoc(), true), flatePDF([]byte("BT (https://other.example/y) Tj ET"))}
	var want []string
	for _, d := range docs {
		p, err := Parse(d, inflateMax)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, strings.Join(p.TextLines, "\n"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(docs)
				p, err := Parse(docs[k], inflateMax)
				if err != nil {
					t.Error(err)
					return
				}
				if got := strings.Join(p.TextLines, "\n"); got != want[k] {
					t.Errorf("doc %d: text %q, want %q", k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
