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
	"hash/maphash"
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
// Repeat calls on identical bytes are served from a bounded memo (see
// parseMemo), so the result is shared: callers must treat it as read-only.
func (p *Pipeline) ParseMessage(raw []byte) (*ParseResult, error) {
	hash, ocr := maphash.Bytes(_parseMemoSeed, raw), p.ocrMinScore()
	if res := p.memo.get(hash, ocr, raw); res != nil {
		return res, nil
	}
	res, err := p.parseMessage(raw, &zipBudget{bytes: zipMessageMax, members: zipMembersMax})
	if err != nil {
		return nil, err
	}
	p.memo.put(parseMemoEntry{hash: hash, ocr: ocr, raw: raw, res: res})
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
		p.parsePDF(part.Body, res, seen)
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
		p.parsePDF(body, res, seen)
	case bytes.HasPrefix(body, []byte("PK\x03\x04")):
		p.parseZIP(body, res, seen, budget)
	}
}

// parseImage scans a raster for QR codes and for visible URL text.
func (p *Pipeline) parseImage(body []byte, res *ParseResult, seen map[string]bool, qrSrc, ocrSrc URLSource) {
	img, err := imaging.DecodeCBI(body)
	if err != nil {
		return
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
	// OCR pass.
	for _, line := range imaging.OCR(img, p.ocrMinScore()) {
		lower := strings.ToLower(line)
		for _, e := range urlx.ExtractLenient(lower) {
			addURL(res, seen, ExtractedURL{URL: e.URL, Source: ocrSrc})
		}
	}
}

// parsePDF extracts annotation URIs, text URLs, and QR codes in embedded
// images.
func (p *Pipeline) parsePDF(body []byte, res *ParseResult, seen map[string]bool) {
	parsed, err := pdfx.Parse(body)
	if err != nil {
		return
	}
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
// members are skipped.
const (
	zipMemberMax  = 4 << 20 // bytes read from one member
	zipMessageMax = 8 << 20 // bytes decompressed from one message's archives
	zipMembersMax = 64      // members opened for one message
)

// zipBudget is what is left of one message's archive limits.
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
		rc, err := f.Open()
		if err != nil {
			continue
		}
		content, err := io.ReadAll(io.LimitReader(rc, int64(min(zipMemberMax, budget.bytes))))
		_ = rc.Close()
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
			p.parsePDF(content, res, seen)
		case imaging.IsCBI(content):
			p.parseImage(content, res, seen, SourceImageQR, SourceImageOCR)
		case strings.HasSuffix(name, ".eml"):
			if inner, err := p.parseMessage(content, budget); err == nil {
				mergeParse(res, seen, inner)
			}
		}
	}
}

// parseMemoSize bounds the parse memo. The ingest service keys a message
// at admission and parses it again in ParseStage; in between it waits in a
// queue of 2×workers behind the running analyses, so 64 entries cover up to
// 20 workers. Memory stays bounded by this constant, not by uptime.
const parseMemoSize = 64

// _parseMemoSeed keys the memo's content hash. It is drawn per process, so
// inputs cannot be crafted to collide.
var _parseMemoSeed = maphash.MakeSeed()

// parseMemo remembers the last parseMemoSize successful parses, evicting
// first in, first out. It is content-addressed, not pointer-addressed: an
// entry matches only bytes with the same hash and equal contents, so a
// buffer the caller reuses or mutates gets a fresh parse. The OCR threshold
// is part of the match because the parse output depends on it; nothing
// else in the pipeline feeds the parse, so a hit returns exactly what a
// fresh parse would. Errors are never memoised.
type parseMemo struct {
	mu      sync.Mutex
	entries [parseMemoSize]parseMemoEntry // guarded by mu
	next    int                           // guarded by mu
}

// parseMemoEntry is one memoised parse. raw is the caller's slice, retained
// as the key: it is compared, never written.
type parseMemoEntry struct {
	hash uint64
	ocr  float64
	raw  []byte
	res  *ParseResult
}

// get returns the memoised parse of raw, or nil.
func (m *parseMemo) get(hash uint64, ocr float64, raw []byte) *ParseResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		e := &m.entries[i]
		if e.res != nil && e.hash == hash && e.ocr == ocr && bytes.Equal(e.raw, raw) {
			return e.res
		}
	}
	return nil
}

// put records a parse, replacing the oldest entry.
func (m *parseMemo) put(e parseMemoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.next % len(m.entries)
	m.entries[i] = e
	m.next = i + 1
}

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
