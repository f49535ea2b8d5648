package pdfx

import (
	"bytes"
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"crawlerbox/internal/imaging"
)

// Errors returned by the parser.
var (
	// ErrNotPDF indicates the input lacks a %PDF header.
	ErrNotPDF = errors.New("pdfx: missing %PDF header")
	// ErrNoObjects indicates no indirect objects could be recovered.
	ErrNoObjects = errors.New("pdfx: no objects found")
)

// Parsed is the recovered content of a PDF document.
type Parsed struct {
	// TextLines is all text drawn with Tj operators, in object order.
	TextLines []string
	// LinkURIs is every /URI action target.
	LinkURIs []string
	// Images is every recovered embedded raster.
	Images []*imaging.Image
	// Inflated is the number of bytes the document's Flate streams
	// inflated to, skipped streams included; it is at most the cap Parse
	// was given.
	Inflated int
}

// rawObject is one indirect object scanned out of the file.
type rawObject struct {
	num    int
	dict   string
	stream []byte
}

var (
	_objStartRe = regexp.MustCompile(`(\d+)\s+(\d+)\s+obj\b`)
	_uriRe      = regexp.MustCompile(`/URI\s*\(`)
)

// Parse scans a PDF byte stream and recovers text, link URIs, and embedded
// images. It does not trust the xref table: objects are located by scanning
// for "N G obj" markers, which also recovers content from documents with
// corrupt or truncated trailers.
//
// The document's Flate streams may inflate to at most inflateMax bytes in
// all: a few kilobytes of PDF can hold gigabytes of compressible text. A
// stream that would cross the cap is skipped, as a corrupt one is, and
// the bytes it inflated before it crossed are spent.
func Parse(data []byte, inflateMax int) (*Parsed, error) {
	if !bytes.HasPrefix(data, []byte("%PDF")) {
		return nil, ErrNotPDF
	}
	objects := scanObjects(data)
	if len(objects) == 0 {
		return nil, ErrNoObjects
	}
	inflateMax = max(inflateMax, 0)
	out := &Parsed{}
	for _, obj := range objects {
		// URI annotations live in object dictionaries.
		out.LinkURIs = append(out.LinkURIs, extractURIs(obj.dict)...)
		if obj.stream == nil {
			continue
		}
		switch {
		case strings.Contains(obj.dict, "/CBIDecode") || imaging.IsCBI(obj.stream):
			if img, err := imaging.DecodeCBI(obj.stream, nil); err == nil {
				out.Images = append(out.Images, img)
			}
		default:
			content := obj.stream
			if strings.Contains(obj.dict, "/FlateDecode") {
				decompressed, err := inflate(content, inflateMax-out.Inflated)
				out.Inflated += len(decompressed)
				if err != nil {
					// Corrupt stream: skip it rather than failing the
					// document, mirroring resilient scanner behavior.
					continue
				}
				content = decompressed
			}
			out.TextLines = append(out.TextLines, extractTextOps(string(content))...)
		}
	}
	return out, nil
}

// scanObjects locates every "N G obj ... endobj" region.
func scanObjects(data []byte) []rawObject {
	var out []rawObject
	locs := _objStartRe.FindAllSubmatchIndex(data, -1)
	for _, loc := range locs {
		numStr := string(data[loc[2]:loc[3]])
		num, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		bodyStart := loc[1]
		end := bytes.Index(data[bodyStart:], []byte("endobj"))
		if end < 0 {
			end = len(data) - bodyStart
		}
		body := data[bodyStart : bodyStart+end]
		obj := rawObject{num: num}
		if sIdx := bytes.Index(body, []byte("stream")); sIdx >= 0 {
			obj.dict = string(body[:sIdx])
			streamStart := sIdx + len("stream")
			// Skip the EOL after the "stream" keyword.
			for streamStart < len(body) && (body[streamStart] == '\r' || body[streamStart] == '\n') {
				streamStart++
			}
			streamEnd := bytes.LastIndex(body, []byte("endstream"))
			if streamEnd < 0 || streamEnd < streamStart {
				streamEnd = len(body)
			}
			stream := body[streamStart:streamEnd]
			// Trim the EOL before "endstream".
			stream = bytes.TrimRight(stream, "\r\n")
			obj.stream = stream
		} else {
			obj.dict = string(body)
		}
		out = append(out, obj)
	}
	return out
}

// extractURIs pulls every /URI (...) action target out of a dictionary.
func extractURIs(dict string) []string {
	var out []string
	for _, loc := range _uriRe.FindAllStringIndex(dict, -1) {
		s, ok := readPDFString(dict[loc[1]-1:])
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// readPDFString reads a parenthesized PDF string starting at src[0] == '('.
func readPDFString(src string) (string, bool) {
	if src == "" || src[0] != '(' {
		return "", false
	}
	var sb strings.Builder
	depth := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '\\':
			if i+1 >= len(src) {
				return "", false
			}
			i++
			switch src[i] {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(src[i])
			}
		case '(':
			depth++
			if depth > 1 {
				sb.WriteByte(c)
			}
		case ')':
			depth--
			if depth == 0 {
				return sb.String(), true
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte(c)
		}
	}
	return "", false
}

// extractTextOps recovers the operands of Tj and TJ operators.
func extractTextOps(content string) []string {
	var out []string
	for i := 0; i < len(content); i++ {
		if content[i] != '(' {
			continue
		}
		s, ok := readPDFString(content[i:])
		if !ok {
			continue
		}
		// Advance past the string literal.
		consumed := pdfStringSpan(content[i:])
		rest := strings.TrimLeft(content[i+consumed:], " \t\r\n")
		if strings.HasPrefix(rest, "Tj") || strings.HasPrefix(rest, "TJ") ||
			strings.HasPrefix(rest, "'") || strings.HasPrefix(rest, "\"") ||
			strings.HasPrefix(rest, "]") { // inside a TJ array
			out = append(out, s)
		}
		i += consumed - 1
	}
	return out
}

// pdfStringSpan returns the byte length of the parenthesized string literal
// starting at src[0] == '('.
func pdfStringSpan(src string) int {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i + 1
			}
		}
	}
	return len(src)
}

// inflater is a zlib reader with the source it reads from.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // nil until a stream with a valid header
}

// inflaters holds an idle inflater between Flate streams, the way
// zlibWriters holds a writer. Reset makes a zlib reader equivalent to a
// new one, so reuse does not change what a stream inflates to; it spares
// each stream the decompressor's 32 KiB window and tables, the largest
// allocation of a PDF parse. Each parse inflates one stream at a time, so
// one idle inflater serves a parse's every stream after the first, and
// serves the next parse; parses running at once build their own.
var inflaters = make(chan *inflater, 1)

// putInflater keeps an inflater for reuse unless the free list is full.
// Its source is emptied first, so an idle inflater pins no document.
func putInflater(in *inflater) {
	in.src.Reset(nil)
	select {
	case inflaters <- in:
	default:
	}
}

// errInflateCap reports a stream that inflates past what is left of the
// document's cap.
var errInflateCap = errors.New("pdfx: stream inflates past the cap")

// inflate decompresses one zlib-wrapped Flate stream of at most limit
// bytes; a longer one fails with errInflateCap. What was inflated is
// returned on failure too.
func inflate(data []byte, limit int) ([]byte, error) {
	var in *inflater
	select {
	case in = <-inflaters:
	default:
		in = new(inflater)
	}
	defer putInflater(in)
	in.src.Reset(data)
	var err error
	if in.zr == nil {
		in.zr, err = zlib.NewReader(&in.src)
	} else {
		err = in.zr.(zlib.Resetter).Reset(&in.src, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("pdfx: opening flate stream: %w", err)
	}
	out, err := readAtMost(in.zr, limit)
	if err != nil && err != errInflateCap {
		err = fmt.Errorf("pdfx: inflating stream: %w", err)
	}
	return out, err
}

// readAtMost reads r to its end into a buffer that doubles as it fills,
// up to limit bytes. If r holds more, it fails with errInflateCap once it
// reads a byte past limit, which it does not keep: the buffer never grows
// beyond limit.
func readAtMost(r io.Reader, limit int) ([]byte, error) {
	out := make([]byte, 0, min(512, limit))
	for {
		if len(out) == cap(out) {
			if len(out) == limit {
				var probe [1]byte
				_, err := io.ReadFull(r, probe[:])
				switch err {
				case nil:
					return out, errInflateCap
				case io.EOF:
					return out, nil
				}
				return out, err
			}
			grown := make([]byte, len(out), min(2*cap(out), limit))
			copy(grown, out)
			out = grown
		}
		n, err := r.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}
