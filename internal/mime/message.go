// Package mime implements the recursive email parsing substrate of the
// CrawlerBox pipeline (Section IV-B of the paper): RFC-5322 header handling,
// multipart traversal to arbitrary nesting depth, base64 and
// quoted-printable transfer decoding, content-type dispatch, magic-number
// sniffing for application/octet-stream parts, and recursive descent into
// message/rfc822 (EML) attachments — plus a builder for composing the
// synthetic corpus.
package mime

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	stdmime "mime"
	"strings"
)

// MaxDepth bounds recursive multipart/EML nesting; real-world abuse includes
// deeply nested EML bombs, which the parser must reject rather than follow.
const MaxDepth = 16

// Errors returned by the parser.
var (
	ErrTooDeep   = errors.New("mime: message nesting exceeds MaxDepth")
	ErrNoHeaders = errors.New("mime: message has no header block")
)

// Part is one node of a parsed message tree. The root Part is the message
// itself; multipart containers carry Children; leaves carry decoded Body.
type Part struct {
	// Header holds the part's header fields.
	Header Header
	// ContentType is the lowercase media type (e.g. "text/html").
	ContentType string
	// Params holds content-type parameters (charset, boundary, name...).
	Params map[string]string
	// Disposition is "inline", "attachment", or "" when absent.
	Disposition string
	// Filename is the decoded attachment filename, if any.
	Filename string
	// Body is the transfer-decoded content for leaf parts.
	Body []byte
	// Children are the sub-parts of multipart/* and message/rfc822 parts.
	Children []*Part
	// buf is the pooled buffer Body was decoded into, for Release.
	buf *[]byte
}

// Parse parses a raw RFC-5322 message into a part tree. Line ends are
// normalized once, here: every entity below is a subslice of the
// normalized message, or of a message/rfc822 body that transfer decoding
// produced and that is normalized in turn.
//
// Base64 bodies are decoded into pooled buffers. A caller that is done
// with the tree may give them back with Release; one that never does
// keeps ordinary bodies that the garbage collector reclaims.
func Parse(raw []byte) (*Part, error) {
	return parseEntity(normalizeCRLF(raw), 0)
}

// Release gives the buffers the tree's bodies were decoded into back to
// the parser's pool and sets every Body in the tree to nil: a later parse
// may decode into the same memory, so nothing read from a Body may be kept
// past Release unless it was copied.
func (p *Part) Release() {
	_ = Walk(p, func(q *Part) error {
		if q.buf != nil {
			putBodyBuf(q.buf)
			q.buf = nil
		}
		q.Body = nil
		return nil
	})
}

func parseEntity(raw []byte, depth int) (*Part, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	header, body, err := splitHeaderBody(raw)
	if err != nil {
		return nil, err
	}
	p := &Part{Header: header, Params: map[string]string{}}
	ct := header.Get("Content-Type")
	if ct == "" {
		ct = "text/plain; charset=us-ascii"
	}
	mediaType, params, err := stdmime.ParseMediaType(ct)
	if err != nil {
		// Tolerate malformed content types the way mail clients do: treat
		// the part as opaque text rather than failing the whole message.
		mediaType, params = "text/plain", map[string]string{}
	}
	p.ContentType = strings.ToLower(mediaType)
	p.Params = params
	if cd := header.Get("Content-Disposition"); cd != "" {
		if disp, dparams, err := stdmime.ParseMediaType(cd); err == nil {
			p.Disposition = strings.ToLower(disp)
			if fn, ok := dparams["filename"]; ok {
				p.Filename = fn
			}
		}
	}
	if p.Filename == "" {
		if name, ok := params["name"]; ok {
			p.Filename = name
		}
	}

	switch {
	case strings.HasPrefix(p.ContentType, "multipart/"):
		boundary := params["boundary"]
		if boundary == "" {
			return nil, fmt.Errorf("mime: multipart part without boundary")
		}
		children, err := splitMultipart(body, boundary)
		if err != nil {
			return nil, err
		}
		for _, chunk := range children {
			child, err := parseEntity(chunk, depth+1)
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, child)
		}
	case p.ContentType == "message/rfc822":
		cte := header.Get("Content-Transfer-Encoding")
		decoded, buf, err := decodeTransfer(body, cte)
		if err != nil {
			return nil, err
		}
		p.Body, p.buf = decoded, buf
		inner := decoded
		if !identityEncoding(cte) {
			inner = normalizeCRLF(decoded)
		}
		child, err := parseEntity(inner, depth+1)
		if err != nil {
			// A corrupt attached EML is kept as an opaque body; the walker
			// will still surface it.
			return p, nil //nolint:nilerr // graceful degradation by design
		}
		p.Children = append(p.Children, child)
	default:
		decoded, buf, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body, p.buf = decoded, buf
	}
	return p, nil
}

// splitHeaderBody separates the header block of a normalized entity from
// its body and reads the block. body is capped with a full slice
// expression, so an append to it cannot write into the caller's spare
// capacity.
func splitHeaderBody(raw []byte) (Header, []byte, error) {
	idx := bytes.Index(raw, blankLine)
	var hdr, body []byte
	if idx < 0 {
		// Header-only entity (empty body) is legal.
		if len(bytes.TrimSpace(raw)) == 0 {
			return Header{}, nil, ErrNoHeaders
		}
		hdr = raw
	} else {
		if len(bytes.TrimSpace(raw[:idx+2])) == 0 {
			return Header{}, nil, ErrNoHeaders
		}
		hdr = raw[:idx+2]
		body = raw[idx+4 : len(raw) : len(raw)]
	}
	header, err := readHeader(hdr)
	if err != nil {
		return Header{}, nil, fmt.Errorf("mime: parsing headers: %w", err)
	}
	return header, body, nil
}

// normalizeCRLF replaces every lone LF with CRLF. Input without a lone LF
// (the common case: wire-format mail is already CRLF) is returned as is,
// uncopied; otherwise the runs between lone LFs are copied in bulk.
func normalizeCRLF(raw []byte) []byte {
	var out []byte
	rest := raw // the part of raw not yet copied to out
	for i := 0; i < len(rest); {
		n := bytes.IndexByte(rest[i:], '\n')
		if n < 0 {
			break
		}
		lf := i + n
		if lf > 0 && rest[lf-1] == '\r' {
			i = lf + 1
			continue
		}
		if out == nil {
			out = make([]byte, 0, len(raw)+len(raw)/20)
		}
		out = append(append(out, rest[:lf]...), '\r', '\n')
		rest, i = rest[lf+1:], 0
	}
	if out == nil {
		return raw
	}
	return append(out, rest...)
}

// splitMultipart splits a multipart body into its raw part chunks. The
// body is a sequence of lines, each ended by CRLF except the last; a line
// that is the delimiter "--boundary" or the close delimiter
// "--boundary--", either one followed by any spaces and tabs, ends the
// part before it, and the delimiter opens the next. A part's chunk is its
// lines without the CRLF that ends the last of them. Lines before the
// first delimiter are preamble, and a missing close delimiter (seen in
// real phishing mail) ends the last part at the end of the body.
//
// Each chunk is a subslice of body, capped at its own end, so an append
// to a chunk reallocates instead of writing over the bytes after it.
// Only lines that start with "--" can be delimiters, so the scan jumps
// from one such line to the next.
func splitMultipart(body []byte, boundary string) ([][]byte, error) {
	closeDelim := []byte("--" + boundary + "--")
	delim := closeDelim[:len(closeDelim)-2]
	var chunks [][]byte
	start := -1 // offset of the open part's first line; -1 outside a part
	for ls := 0; ls < len(body); {
		// ls is the offset of a line start.
		if !bytes.HasPrefix(body[ls:], delimPrefix) {
			i := bytes.Index(body[ls:], lineDelimPrefix)
			if i < 0 {
				break
			}
			ls += i + 2
		}
		line, next := body[ls:], len(body)
		if le := bytes.Index(line, crlf); le >= 0 {
			line, next = line[:le], ls+le+2
		}
		trimmed := bytes.TrimRight(line, " \t")
		isDelim := bytes.Equal(trimmed, delim)
		if isDelim || bytes.Equal(trimmed, closeDelim) {
			if start >= 0 {
				end := ls - 2 // the CRLF that ends the part's last line
				if end < start {
					end = start // no lines between the delimiters
				}
				chunks = append(chunks, body[start:end:end])
			}
			if !isDelim {
				start = -1
				break
			}
			start = next
		}
		ls = next
	}
	if start >= 0 {
		chunks = append(chunks, body[start:len(body):len(body)])
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("mime: no parts found for boundary %q", boundary)
	}
	return chunks, nil
}

// The byte patterns the splitters scan for.
var (
	crlf            = []byte("\r\n")
	blankLine       = []byte("\r\n\r\n")
	delimPrefix     = []byte("--")
	lineDelimPrefix = []byte("\r\n--")
)

// decodeTransfer decodes a Content-Transfer-Encoding. An identity encoding
// returns body itself. A base64 body is decoded into a pooled buffer, and
// buf is its handle for Release (nil for a body too large to pool).
func decodeTransfer(body []byte, encoding string) (out []byte, buf *[]byte, err error) {
	if identityEncoding(encoding) {
		return body, nil, nil
	}
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "base64":
		// The decoder skips CR and LF itself, so a body without spaces or
		// tabs decodes without a stripped copy. On an error the stripped
		// copy is decoded anyway: its error text, whose offset counts the
		// stripped input, is the one callers see.
		if bytes.IndexByte(body, ' ') < 0 && bytes.IndexByte(body, '\t') < 0 {
			out, buf, err := decodeBase64(body)
			if err == nil {
				return out, buf, nil
			}
			putBodyBuf(buf)
		}
		out, buf, err := decodeBase64(removeWhitespace(body))
		if err != nil {
			putBodyBuf(buf)
			return nil, nil, fmt.Errorf("mime: decoding base64 body: %w", err)
		}
		return out, buf, nil
	case "quoted-printable":
		out, err := decodeQP(body)
		if err != nil {
			return nil, nil, fmt.Errorf("mime: decoding quoted-printable body: %w", err)
		}
		return out, nil, nil
	default:
		return nil, nil, fmt.Errorf("mime: unsupported transfer encoding %q", encoding)
	}
}

// identityEncoding reports whether a Content-Transfer-Encoding leaves the
// body as it is.
func identityEncoding(encoding string) bool {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "", "7bit", "8bit", "binary":
		return true
	}
	return false
}

// decodeQP decodes a quoted-printable body in memory, into an output sized
// once: decoding never lengthens a line. It returns the bytes and the
// error that io.ReadAll(quotedprintable.NewReader(r)) returns when r
// buffers whole lines, deviations from RFC 2045 included: a soft break may
// end in a bare LF or end the body, a CR or LF that no '=' precedes passes
// through, and an '=' that no two hex digits follow is literal unless a
// line break follows it. Lines of any length decode; the reader over a
// default bufio.Reader fails a line longer than 4 KiB, which would let one
// over-long line in a decoy part hide a message's links.
func decodeQP(body []byte) ([]byte, error) {
	out := make([]byte, 0, len(body))
	rest := body
	for {
		// The next line, as bufio.Reader.ReadSlice('\n') returns it.
		var whole []byte
		var rerr error
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			whole, rest = rest[:i+1], rest[i+1:]
		} else {
			whole, rest, rerr = rest, nil, io.EOF
		}
		// The line loses its trailing white space and gets back the break
		// it ended in, unless a soft break '=' ends it.
		line := bytes.TrimRight(whole, "\n\r \t")
		var eol string
		if n := len(line); n > 0 && line[n-1] == '=' {
			stripped := whole[n:]
			line = line[:n-1]
			if !bytes.HasPrefix(stripped, lf) && !bytes.HasPrefix(stripped, crlf) &&
				!(len(stripped) == 0 && len(line) > 0 && rerr == io.EOF) {
				rerr = fmt.Errorf("quotedprintable: invalid bytes after =: %q", stripped)
			}
		} else if bytes.HasSuffix(whole, crlf) {
			eol = "\r\n"
		} else if bytes.HasSuffix(whole, lf) {
			eol = "\n"
		}
		// at reads the line with its break.
		n := len(line) + len(eol)
		at := func(i int) byte {
			if i < len(line) {
				return line[i]
			}
			return eol[i-len(line)]
		}
		for i := 0; i < n; i++ {
			b := at(i)
			switch {
			case b == '=':
				err := io.ErrUnexpectedEOF
				if n-i > 2 {
					var hb, lb byte
					if hb, err = qpHex(at(i + 1)); err == nil {
						if lb, err = qpHex(at(i + 2)); err == nil {
							b = hb<<4 | lb
							i += 2
							break
						}
					}
				}
				if n-i < 2 || at(i+1) == '\r' || at(i+1) == '\n' {
					return nil, err
				}
				// Take the = as a literal =.
			case b == '\t' || b == '\r' || b == '\n' || b >= 0x80:
			case b < ' ' || b > '~':
				return nil, fmt.Errorf("quotedprintable: invalid unescaped byte 0x%02x in body", b)
			}
			out = append(out, b)
		}
		if rerr == io.EOF {
			return out, nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}

// qpHex decodes one hex digit of a quoted-printable escape; lower case is
// accepted, as mime/quotedprintable does.
func qpHex(b byte) (byte, error) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', nil
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, nil
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, nil
	}
	return 0, fmt.Errorf("quotedprintable: invalid hex byte 0x%02x", b)
}

var lf = []byte("\n")

// decodeBase64 decodes standard base64, skipping CR and LF, into a pooled
// buffer, and returns the buffer's handle with the decoded bytes.
func decodeBase64(src []byte) ([]byte, *[]byte, error) {
	out, buf := bodyBuf(base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(out, src)
	if n > len(out) {
		n = len(out)
	}
	return out[:n:n], buf, err
}

func removeWhitespace(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		switch c {
		case '\r', '\n', ' ', '\t':
		default:
			out = append(out, c)
		}
	}
	return out
}

// Walk performs a depth-first traversal of the part tree, calling fn on
// every part including the root. Returning a non-nil error stops the walk.
func Walk(root *Part, fn func(*Part) error) error {
	if err := fn(root); err != nil {
		return err
	}
	for _, c := range root.Children {
		if err := Walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// Leaves returns all leaf parts (those without children) in document order.
func Leaves(root *Part) []*Part {
	var out []*Part
	_ = Walk(root, func(p *Part) error {
		if len(p.Children) == 0 {
			out = append(out, p)
		}
		return nil
	})
	return out
}

// Subject returns the message subject of a root part.
func (p *Part) Subject() string {
	return p.Header.Get("Subject")
}

// From returns the From header of a root part.
func (p *Part) From() string {
	return p.Header.Get("From")
}

// AuthResults reports the SPF/DKIM/DMARC verdicts recorded in the
// Authentication-Results header. The paper notes that every malicious
// message in the corpus passed all three — they come from legitimate or
// compromised infrastructure, not spoofed senders.
type AuthResults struct {
	SPF   string
	DKIM  string
	DMARC string
}

// ParseAuthResults extracts the three verdicts from an
// Authentication-Results header value such as
// "mx.example.com; spf=pass ...; dkim=pass ...; dmarc=pass ...".
func ParseAuthResults(value string) AuthResults {
	var out AuthResults
	for _, field := range strings.Split(value, ";") {
		field = strings.TrimSpace(field)
		for _, mech := range []struct {
			prefix string
			dst    *string
		}{
			{"spf=", &out.SPF},
			{"dkim=", &out.DKIM},
			{"dmarc=", &out.DMARC},
		} {
			if strings.HasPrefix(strings.ToLower(field), mech.prefix) {
				rest := field[len(mech.prefix):]
				if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
					rest = rest[:sp]
				}
				*mech.dst = strings.ToLower(rest)
			}
		}
	}
	return out
}

// PassesAuth reports whether all three mechanisms read "pass".
func (a AuthResults) PassesAuth() bool {
	return a.SPF == "pass" && a.DKIM == "pass" && a.DMARC == "pass"
}
