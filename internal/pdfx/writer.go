// Package pdfx implements a minimal PDF 1.4 writer and parser pair. It
// covers exactly the features the CrawlerBox parsing phase needs from PDF
// attachments: text content (Tj operators inside, optionally Flate-
// compressed, content streams), URI link annotations, and embedded raster
// images (CBI-encoded XObjects). The parser is tolerant: it scans for
// indirect objects directly rather than trusting the xref table, the same
// strategy hardened email scanners use against malformed documents.
package pdfx

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"strings"

	"crawlerbox/internal/imaging"
)

// zlibWriters holds idle zlib writers between content streams. Reset makes
// a writer equivalent to a new one, so the compressed bytes do not depend
// on reuse; reuse spares each stream the compressor's tables, 0.8 MB of
// allocation. It is a bounded free list rather than a sync.Pool, which
// every GC empties: the corpus generator collects often enough that most
// streams would still build a fresh compressor. Build compresses one
// stream at a time and the corpus renders its messages one after another,
// so one idle writer (0.8 MB) gives every stream after the first a reused
// compressor; a second Build running at once builds its own.
var zlibWriters = make(chan *zlib.Writer, 1)

// getZlibWriter returns an idle zlib writer reset to write to w, or a new
// one.
func getZlibWriter(w io.Writer) *zlib.Writer {
	select {
	case zw := <-zlibWriters:
		zw.Reset(w)
		return zw
	default:
		return zlib.NewWriter(w)
	}
}

// putZlibWriter keeps a closed zlib writer for reuse unless the free list
// is full.
func putZlibWriter(zw *zlib.Writer) {
	select {
	case zlibWriters <- zw:
	default:
	}
}

// PlacedImage is a raster placed at a position on a page. Coordinates are
// in PDF points from the top-left of the page (the writer converts to PDF's
// bottom-left origin internally).
type PlacedImage struct {
	X, Y int
	Img  *imaging.Image
}

// Page is one page of a document.
type Page struct {
	// TextLines are drawn top-down starting near the top margin.
	TextLines []string
	// LinkURIs become /URI link annotations.
	LinkURIs []string
	// Images are rasters embedded as image XObjects.
	Images []PlacedImage
}

// Document is a list of pages.
type Document struct {
	Pages []Page
}

// Page geometry (US Letter in points).
const (
	pageWidth  = 612
	pageHeight = 792
	marginX    = 72
	marginTopY = 720
	leading    = 16
)

// Build serializes the document to PDF bytes. Content streams are
// Flate-compressed when compress is true, exercising the parser's
// decompression path.
func Build(doc *Document, compress bool) []byte {
	var objects [][]byte // index = object number - 1
	addObj := func(body string, stream []byte) int {
		num := len(objects) + 1
		var b bytes.Buffer
		fmt.Fprintf(&b, "%d 0 obj\n", num)
		b.WriteString(body)
		if stream != nil {
			b.WriteString("\nstream\n")
			b.Write(stream)
			b.WriteString("\nendstream")
		}
		b.WriteString("\nendobj\n")
		objects = append(objects, b.Bytes())
		return num
	}

	fontNum := addObj(`<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>`, nil)

	var pageNums []int
	// Reserve object numbers: we must know the Pages object number up
	// front; build pages first and patch the catalog afterwards by
	// emitting pages, then the pages tree, then the catalog.
	for _, page := range doc.Pages {
		// Image XObjects for this page.
		var xobjects []placedRef
		for i, pi := range page.Images {
			data := imaging.EncodeCBI(pi.Img)
			body := fmt.Sprintf(
				"<< /Type /XObject /Subtype /Image /Width %d /Height %d /Filter /CBIDecode /Length %d >>",
				pi.Img.W, pi.Img.H, len(data))
			num := addObj(body, data)
			xobjects = append(xobjects, placedRef{name: fmt.Sprintf("Im%d", i), num: num, img: pi})
		}

		content := buildContentStream(page, xobjects)
		var stream []byte
		filter := ""
		if compress {
			var zbuf bytes.Buffer
			zw := getZlibWriter(&zbuf)
			_, _ = zw.Write(content)
			_ = zw.Close()
			putZlibWriter(zw)
			stream = zbuf.Bytes()
			filter = " /Filter /FlateDecode"
		} else {
			stream = content
		}
		contentNum := addObj(fmt.Sprintf("<< /Length %d%s >>", len(stream), filter), stream)

		var annotRefs []string
		for _, uri := range page.LinkURIs {
			annotNum := addObj(fmt.Sprintf(
				"<< /Type /Annot /Subtype /Link /Rect [%d %d %d %d] /A << /S /URI /URI (%s) >> >>",
				marginX, 100, pageWidth-marginX, 120, escapePDFString(uri)), nil)
			annotRefs = append(annotRefs, fmt.Sprintf("%d 0 R", annotNum))
		}

		var xobjDict strings.Builder
		if len(xobjects) > 0 {
			xobjDict.WriteString(" /XObject <<")
			for _, x := range xobjects {
				fmt.Fprintf(&xobjDict, " /%s %d 0 R", x.name, x.num)
			}
			xobjDict.WriteString(" >>")
		}
		annots := ""
		if len(annotRefs) > 0 {
			annots = fmt.Sprintf(" /Annots [%s]", strings.Join(annotRefs, " "))
		}
		pageBody := fmt.Sprintf(
			"<< /Type /Page /Parent PAGES_REF /MediaBox [0 0 %d %d] /Contents %d 0 R /Resources << /Font << /F1 %d 0 R >>%s >>%s >>",
			pageWidth, pageHeight, contentNum, fontNum, xobjDict.String(), annots)
		pageNums = append(pageNums, addObj(pageBody, nil))
	}

	kids := make([]string, len(pageNums))
	for i, n := range pageNums {
		kids[i] = fmt.Sprintf("%d 0 R", n)
	}
	pagesNum := addObj(fmt.Sprintf("<< /Type /Pages /Kids [%s] /Count %d >>",
		strings.Join(kids, " "), len(pageNums)), nil)
	catalogNum := addObj(fmt.Sprintf("<< /Type /Catalog /Pages %d 0 R >>", pagesNum), nil)

	// Patch the parent reference now that the pages object number is known.
	parentRef := fmt.Sprintf("%d 0 R", pagesNum)
	for i := range objects {
		objects[i] = bytes.ReplaceAll(objects[i], []byte("PAGES_REF"), []byte(parentRef))
	}

	// Assemble with a classic xref table.
	var out bytes.Buffer
	out.WriteString("%PDF-1.4\n%\xE2\xE3\xCF\xD3\n")
	offsets := make([]int, len(objects))
	for i, obj := range objects {
		offsets[i] = out.Len()
		out.Write(obj)
	}
	xrefPos := out.Len()
	fmt.Fprintf(&out, "xref\n0 %d\n", len(objects)+1)
	out.WriteString("0000000000 65535 f \n")
	for _, off := range offsets {
		fmt.Fprintf(&out, "%010d 00000 n \n", off)
	}
	fmt.Fprintf(&out, "trailer\n<< /Size %d /Root %d 0 R >>\nstartxref\n%d\n%%%%EOF\n",
		len(objects)+1, catalogNum, xrefPos)
	return out.Bytes()
}

// placedRef ties an embedded image XObject to its resource name.
type placedRef struct {
	name string
	num  int
	img  PlacedImage
}

func buildContentStream(page Page, xobjects []placedRef) []byte {
	var b bytes.Buffer
	if len(page.TextLines) > 0 {
		fmt.Fprintf(&b, "BT\n/F1 12 Tf\n%d %d Td\n%d TL\n", marginX, marginTopY, leading)
		for i, line := range page.TextLines {
			if i > 0 {
				b.WriteString("T*\n")
			}
			fmt.Fprintf(&b, "(%s) Tj\n", escapePDFString(line))
		}
		b.WriteString("ET\n")
	}
	for _, x := range xobjects {
		// Convert top-left placement to PDF bottom-left coordinates.
		pdfY := pageHeight - x.img.Y - x.img.Img.H
		fmt.Fprintf(&b, "q\n%d 0 0 %d %d %d cm\n/%s Do\nQ\n",
			x.img.Img.W, x.img.Img.H, x.img.X, pdfY, x.name)
	}
	return b.Bytes()
}

// _pdfStringEscaper escapes a PDF literal string's delimiters and line breaks.
var _pdfStringEscaper = strings.NewReplacer(`\`, `\\`, "(", `\(`, ")", `\)`, "\n", `\n`, "\r", `\r`)

func escapePDFString(s string) string { return _pdfStringEscaper.Replace(s) }
