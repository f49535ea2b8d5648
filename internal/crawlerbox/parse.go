// Package crawlerbox implements the paper's analysis pipeline (Figure 1):
// recursive message parsing that extracts web resources from every MIME
// part (text, HTML, images with OCR and QR codes, PDFs, ZIP archives,
// nested EMLs), an evasive crawling phase built on a pluggable crawler
// (NotABot by default — the component is modular by design), screenshot
// classification against the protected brands' login pages via fuzzy
// hashing, a cloaking-technique census over the loaded scripts and traffic,
// and WHOIS / certificate / passive-DNS enrichment.
package crawlerbox

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"

	"crawlerbox/internal/imaging"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/pdfx"
	"crawlerbox/internal/qrcode"
	"crawlerbox/internal/urlx"
)

// URLSource identifies where in the message a URL was found.
type URLSource string

// URL sources.
const (
	SourceText     URLSource = "text"
	SourceHTML     URLSource = "html"
	SourceImageQR  URLSource = "image-qr"
	SourceImageOCR URLSource = "image-ocr"
	SourcePDFLink  URLSource = "pdf-link"
	SourcePDFText  URLSource = "pdf-text"
	SourcePDFQR    URLSource = "pdf-image-qr"
	SourceZIP      URLSource = "zip"
	SourceEML      URLSource = "eml"
)

// ExtractedURL is one URL recovered during parsing.
type ExtractedURL struct {
	URL    string
	Source URLSource
	// LenientOnly marks URLs that only a lenient extractor recovers —
	// the faulty-QR evasion signature.
	LenientOnly bool
	// Rewritten marks URLs recovered by unwrapping a gateway rewrite
	// (Safe Links / Proofpoint-style); URL holds the canonical form.
	Rewritten bool
}

// HTMLAttachmentFile is an HTML file attached separately from the body.
type HTMLAttachmentFile struct {
	Filename string
	Content  string
}

// ParseResult is the outcome of the parsing phase for one message.
//
// A *ParseResult is shared and read-only: ParseMessage hands the same value
// to every caller that parses identical bytes (the ingest keyer and the
// ParseStage of the analysis it admits, or two reports of one message), so
// no consumer may modify it or the slices it holds.
type ParseResult struct {
	Subject string
	From    string
	Auth    mime.AuthResults
	URLs    []ExtractedURL
	// HTMLAttachments are loaded dynamically during the crawl phase.
	HTMLAttachments []HTMLAttachmentFile
	// ZIPWithHTA marks archives containing HTA droppers (never executed).
	ZIPWithHTA bool
	// HTAURLs are URLs statically recovered from HTA droppers.
	HTAURLs []string
	// FaultyQR marks QR payloads that defeat strict whole-payload parsing.
	FaultyQR bool
	// QRCount counts decoded QR codes.
	QRCount int
	// NoisePadded marks bodies with the line-break + random-text padding.
	NoisePadded bool
	// OTPCodes are access codes found in the body text (used to drive
	// OTP-gated pages during the crawl).
	OTPCodes []string
	// RewrittenURLs counts gateway-rewritten links that were decoded back
	// to their canonical URL during extraction.
	RewrittenURLs int
}

// ParseMessage runs the full recursive parsing phase over a raw message.
// Repeat calls on identical bytes are served from a bounded memo, so the
// result is shared: callers must treat it as read-only. The memo is
// content-addressed, not pointer-addressed: its key is the caller's slice,
// compared and never written, so a buffer the caller reuses or mutates
// gets a fresh parse. Nothing but the bytes feeds the parse, so a hit
// returns exactly what a fresh parse would. Errors are never memoised.
func (p *Pipeline) ParseMessage(raw []byte) (*ParseResult, error) {
	h := p.parses.Hash(raw)
	if res, ok := p.parses.Get(h, raw); ok {
		return res, nil
	}
	res, err := p.parseMessage(raw, &zipBudget{bytes: zipMessageMax, members: zipMembersMax})
	if err != nil {
		return nil, err
	}
	size := len(raw)
	for _, a := range res.HTMLAttachments {
		size += len(a.Content)
	}
	p.parses.Put(h, raw, res, size)
	return res, nil
}

// parseMessage is ParseMessage without the memo; recursive parses of EMLs
// nested in archives call it directly, with what is left of the outer
// message's archive budget.
func (p *Pipeline) parseMessage(raw []byte, budget *zipBudget) (*ParseResult, error) {
	root, err := mime.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("crawlerbox: parsing message: %w", err)
	}
	res := &ParseResult{
		Subject: root.Subject(),
		From:    root.From(),
		Auth:    mime.ParseAuthResults(root.Header.Get("Authentication-Results")),
	}
	seen := map[string]bool{}
	err = mime.Walk(root, func(part *mime.Part) error {
		p.parsePart(part, res, seen, budget)
		return nil
	})
	// Every consumer above copies what it keeps out of a body, so the
	// decoded bodies can go back to the parser's pool.
	root.Release()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (p *Pipeline) parsePart(part *mime.Part, res *ParseResult, seen map[string]bool, budget *zipBudget) {
	switch {
	case part.ContentType == "text/plain":
		text := string(part.Body)
		addURLs(res, seen, extractFromText(text), SourceText)
		if detectNoisePadding(text) {
			res.NoisePadded = true
		}
		res.OTPCodes = append(res.OTPCodes, findOTPCodes(text)...)
	case part.ContentType == "text/html":
		if part.Disposition == "attachment" {
			res.HTMLAttachments = append(res.HTMLAttachments, HTMLAttachmentFile{
				Filename: part.Filename, Content: string(part.Body),
			})
			return
		}
		addURLs(res, seen, extractFromHTML(string(part.Body)), SourceHTML)
		res.OTPCodes = append(res.OTPCodes, findOTPCodes(string(part.Body))...)
	case strings.HasPrefix(part.ContentType, "image/"):
		p.parseImage(part.Body, res, seen, SourceImageQR, SourceImageOCR)
	case part.ContentType == "application/pdf":
		p.parsePDF(part.Body, res, seen, budget)
	case part.ContentType == "application/zip":
		p.parseZIP(part.Body, res, seen, budget)
	case part.ContentType == "application/octet-stream":
		p.sniffOctetStream(part.Body, res, seen, budget)
	}
	// message/rfc822 children are visited by the walker itself; their
	// parts flow through the same dispatch above.
}

// sniffOctetStream classifies opaque binaries by magic number, the way the
// original pipeline dispatches Octet Stream parts.
func (p *Pipeline) sniffOctetStream(body []byte, res *ParseResult, seen map[string]bool, budget *zipBudget) {
	switch {
	case imaging.IsCBI(body):
		p.parseImage(body, res, seen, SourceImageQR, SourceImageOCR)
	case bytes.HasPrefix(body, []byte("%PDF")):
		p.parsePDF(body, res, seen, budget)
	case bytes.HasPrefix(body, []byte("PK\x03\x04")):
		p.parseZIP(body, res, seen, budget)
	}
}

// pixPool holds the pixel slices parseImage decodes images into; a slice
// over maxPooledPixels is not kept.
var pixPool sync.Pool

const maxPooledPixels = 1 << 20

// parseImage scans a raster for QR codes and for visible URL text. The
// raster lives only for this call, in a pixel slice from pixPool.
func (p *Pipeline) parseImage(body []byte, res *ParseResult, seen map[string]bool, qrSrc, ocrSrc URLSource) {
	pix, _ := pixPool.Get().(*[]imaging.RGB)
	if pix == nil {
		pix = new([]imaging.RGB)
	}
	img, err := imaging.DecodeCBI(body, *pix)
	if err != nil {
		pixPool.Put(pix)
		return
	}
	if len(img.Pix) <= maxPooledPixels {
		*pix = img.Pix
		defer pixPool.Put(pix)
	}
	// QR pass.
	if dec, err := qrcode.DecodeImage(img); err == nil {
		res.QRCount++
		_, strictOK := urlx.ExtractStrictWhole(dec.Payload)
		for _, e := range urlx.ExtractLenient(dec.Payload) {
			lenientOnly := !strictOK
			if lenientOnly {
				res.FaultyQR = true
			}
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: qrSrc, LenientOnly: lenientOnly})
		}
		return
	}
	// OCR pass, at the glyph matcher's default threshold.
	for _, line := range imaging.OCR(img, 0) {
		lower := strings.ToLower(line)
		for _, e := range urlx.ExtractLenient(lower) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: ocrSrc})
		}
	}
}

// parsePDF extracts annotation URIs, text URLs, and QR codes in embedded
// images. The PDF's compressed streams inflate within what is left of
// the message's budget of decompressed bytes, and spend it.
func (p *Pipeline) parsePDF(body []byte, res *ParseResult, seen map[string]bool, budget *zipBudget) {
	parsed, err := pdfx.Parse(body, budget.bytes)
	if err != nil {
		return
	}
	budget.bytes -= parsed.Inflated
	for _, uri := range parsed.LinkURIs {
		for _, e := range urlx.ExtractLenient(uri) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourcePDFLink})
		}
	}
	for _, line := range parsed.TextLines {
		for _, e := range urlx.ExtractStrict(line) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourcePDFText})
		}
		res.OTPCodes = append(res.OTPCodes, findOTPCodes(line)...)
	}
	for _, img := range parsed.Images {
		if dec, err := qrcode.DecodeImage(img); err == nil {
			res.QRCount++
			_, strictOK := urlx.ExtractStrictWhole(dec.Payload)
			for _, e := range urlx.ExtractLenient(dec.Payload) {
				lenientOnly := !strictOK
				if lenientOnly {
					res.FaultyQR = true
				}
				addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourcePDFQR, LenientOnly: lenientOnly})
			}
		}
	}
}

// Archive limits. A few hundred kilobytes of ZIP can hold gigabytes of
// compressible members, so one message's archives, EML-in-ZIP nesting
// included, share one budget of decompressed bytes and one count of
// members: a member is read up to zipMemberMax bytes or what is left of
// the budget, whichever is less, and once either runs out the remaining
// members are skipped. The message's PDFs inflate their compressed
// streams from the same bytes (parsePDF).
const (
	zipMemberMax  = 4 << 20 // bytes read from one member
	zipMessageMax = 8 << 20 // bytes decompressed from one message's archives and PDFs
	zipMembersMax = 64      // members opened for one message
)

// zipBudget is what is left of one message's archive limits; its bytes
// also bound what the message's PDFs inflate.
type zipBudget struct {
	bytes   int
	members int
}

// parseZIP unpacks an archive within budget and routes each member through
// the appropriate analyzer. HTA members are never executed; their script
// sources are scanned statically.
func (p *Pipeline) parseZIP(body []byte, res *ParseResult, seen map[string]bool, budget *zipBudget) {
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return
	}
	for _, f := range zr.File {
		if budget.members == 0 || budget.bytes == 0 {
			return
		}
		budget.members--
		content, err := readMember(f, min(zipMemberMax, budget.bytes))
		budget.bytes -= len(content)
		if err != nil {
			continue
		}
		name := strings.ToLower(f.Name)
		switch {
		case strings.HasSuffix(name, ".hta"):
			res.ZIPWithHTA = true
			for _, e := range urlx.ExtractLenient(string(content)) {
				res.HTAURLs = append(res.HTAURLs, e.URL)
				addURL(res, seen, ExtractedURL{URL: e.URL, Source: SourceZIP})
			}
		case strings.HasSuffix(name, ".html") || strings.HasSuffix(name, ".htm"):
			res.HTMLAttachments = append(res.HTMLAttachments, HTMLAttachmentFile{
				Filename: f.Name, Content: string(content),
			})
		case strings.HasSuffix(name, ".txt"):
			addURLs(res, seen, extractFromText(string(content)), SourceZIP)
		case strings.HasSuffix(name, ".pdf") || bytes.HasPrefix(content, []byte("%PDF")):
			p.parsePDF(content, res, seen, budget)
		case imaging.IsCBI(content):
			p.parseImage(content, res, seen, SourceImageQR, SourceImageOCR)
		case strings.HasSuffix(name, ".eml"):
			if inner, err := p.parseMessage(content, budget); err == nil {
				mergeParse(res, seen, inner)
			}
		}
	}
}

// readMember reads at most limit bytes of an archive member, the way
// io.ReadAll over an io.LimitReader does, but into one buffer sized from
// the member's declared size: a member that declares more than it holds
// costs at most limit bytes, and one that declares less fails its read.
func readMember(f *zip.File, limit int) ([]byte, error) {
	rc, err := f.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	size := uint64(limit)
	if f.UncompressedSize64 < size {
		size = f.UncompressedSize64
	}
	// MinRead spare bytes let the buffer see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, int(size)+bytes.MinRead))
	_, err = buf.ReadFrom(io.LimitReader(rc, int64(limit)))
	return buf.Bytes(), err
}

// parseMemoSize bounds the parse memo's entries. The ingest service keys
// a message at admission and parses it again in ParseStage; in between it
// is one of at most 3×workers queued or running analyses, so 64 entries
// cover up to 20 workers.
const parseMemoSize = 64

// parseMemoBytes bounds the bytes the parse memo pins: each entry counts
// its raw message plus the HTML attachments its parse kept, the two
// buffers an attacker can make large. 64 entries of 256 KiB fit, while a
// message whose archive fills its whole budget (zipMessageMax) takes the
// room of many. Memory stays bounded by these constants, not by uptime.
const parseMemoBytes = 16 << 20

func mergeParse(dst *ParseResult, seen map[string]bool, src *ParseResult) {
	for _, u := range src.URLs {
		addURL(dst, seen, u)
	}
	dst.HTMLAttachments = append(dst.HTMLAttachments, src.HTMLAttachments...)
	dst.ZIPWithHTA = dst.ZIPWithHTA || src.ZIPWithHTA
	dst.HTAURLs = append(dst.HTAURLs, src.HTAURLs...)
	dst.FaultyQR = dst.FaultyQR || src.FaultyQR
	dst.QRCount += src.QRCount
	dst.NoisePadded = dst.NoisePadded || src.NoisePadded
	dst.OTPCodes = append(dst.OTPCodes, src.OTPCodes...)
	dst.RewrittenURLs += src.RewrittenURLs
}

func extractFromText(text string) []string {
	var out []string
	for _, e := range urlx.ExtractStrict(text) {
		out = append(out, e.URL)
	}
	return out
}

func extractFromHTML(html string) []string {
	var out []string
	// Static href/src extraction; scripts run later in the crawl phase.
	doc := parseHTML(html)
	for _, link := range doc {
		out = append(out, link)
	}
	return out
}

func addURLs(res *ParseResult, seen map[string]bool, urls []string, src URLSource) {
	for _, u := range urls {
		addURL(res, seen, ExtractedURL{URL: u, Source: src})
	}
}

// addURL canonicalizes and dedups one extracted URL. Gateway rewrites
// (Safe Links / Proofpoint URL Defense wrappers) are decoded here, before
// the dedup map, so a wrapped and an unwrapped report of the same landing
// URL collapse to one entry — and downstream consumers (the crawl stage,
// the ingest verdict cache) only ever see canonical URLs.
func addURL(res *ParseResult, seen map[string]bool, u ExtractedURL) {
	if u.URL == "" {
		return
	}
	if decoded, layers := urlx.DecodeRewritten(u.URL); layers > 0 {
		u.URL = decoded
		u.Rewritten = true
		res.RewrittenURLs++
	}
	if seen[u.URL] {
		return
	}
	seen[u.URL] = true
	res.URLs = append(res.URLs, u)
}

// detectNoisePadding spots the Section V-C1 signature: a long run of line
// breaks followed by filler text.
func detectNoisePadding(text string) bool {
	breaks := 0
	maxRun := 0
	for _, r := range text {
		if r == '\n' {
			breaks++
			if breaks > maxRun {
				maxRun = breaks
			}
		} else if r != '\r' && r != ' ' && r != '\t' {
			breaks = 0
		}
	}
	return maxRun >= 20
}

var _otpRe = regexp.MustCompile(`(?i)(?:access code|one.time|security code|otp)[^0-9]{0,40}([0-9]{6})`)

// findOTPCodes recovers 6-digit access codes mentioned near OTP phrasing.
func findOTPCodes(text string) []string {
	if !mayHaveOTPPhrase(text) {
		return nil
	}
	var out []string
	for _, m := range _otpRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// mayHaveOTPPhrase is _otpRe's exact prefilter: every alternative of the
// regexp contains "otp", "code" or "time", so text with none of the three
// (in any ASCII case) cannot match. ASCII case suffices because none of the
// letters o, t, p, c, d, e, i, m has a non-ASCII case fold. The regexp has
// no literal prefix to skip ahead with, so without the filter the matcher
// tries a match at every byte of every body.
func mayHaveOTPPhrase(text string) bool {
	for i := 0; i < len(text); i++ {
		var word string
		switch text[i] | 0x20 {
		case 'o':
			word = "otp"
		case 'c':
			word = "code"
		case 't':
			word = "time"
		default:
			continue
		}
		if len(text)-i >= len(word) && strings.EqualFold(text[i:i+len(word)], word) {
			return true
		}
	}
	return false
}
