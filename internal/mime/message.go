// Package mime implements the recursive email parsing substrate of the
// CrawlerBox pipeline (Section IV-B of the paper): RFC-5322 header handling,
// multipart traversal to arbitrary nesting depth, base64 and
// quoted-printable transfer decoding, content-type dispatch, magic-number
// sniffing for application/octet-stream parts, and recursive descent into
// message/rfc822 (EML) attachments — plus a builder for composing the
// synthetic corpus.
package mime

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	stdmime "mime"
	"mime/quotedprintable"
	"net/textproto"
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
	// Header holds the part's headers with canonical MIME keys.
	Header textproto.MIMEHeader
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
}

// Parse parses a raw RFC-5322 message into a part tree.
func Parse(raw []byte) (*Part, error) {
	return parseEntity(raw, 0)
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
		decoded, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
		child, err := parseEntity(decoded, depth+1)
		if err != nil {
			// A corrupt attached EML is kept as an opaque body; the walker
			// will still surface it.
			return p, nil //nolint:nilerr // graceful degradation by design
		}
		p.Children = append(p.Children, child)
	default:
		decoded, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
	}
	return p, nil
}

// splitHeaderBody separates the header block from the body and parses
// headers with unfolding.
func splitHeaderBody(raw []byte) (textproto.MIMEHeader, []byte, error) {
	// Normalize bare LF to CRLF for the textproto reader.
	normalized := normalizeCRLF(raw)
	idx := bytes.Index(normalized, []byte("\r\n\r\n"))
	// headerBytes is capped with a full slice expression: normalized may be
	// the caller's own bytes, and the append below must not write into
	// their spare capacity.
	var headerBytes, body []byte
	if idx < 0 {
		// Header-only entity (empty body) is legal.
		headerBytes = normalized[:len(normalized):len(normalized)]
		body = nil
	} else {
		headerBytes = normalized[: idx+2 : idx+2]
		body = normalized[idx+4:]
	}
	if len(bytes.TrimSpace(headerBytes)) == 0 {
		return nil, nil, ErrNoHeaders
	}
	r := textproto.NewReader(bufio.NewReader(bytes.NewReader(append(headerBytes, '\r', '\n'))))
	header, err := r.ReadMIMEHeader()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("mime: parsing headers: %w", err)
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

// splitMultipart splits a multipart body into its raw part chunks.
func splitMultipart(body []byte, boundary string) ([][]byte, error) {
	delim := []byte("--" + boundary)
	var chunks [][]byte
	lines := bytes.Split(body, []byte("\r\n"))
	var current []byte
	inPart := false
	closed := false
	for _, line := range lines {
		trimmed := bytes.TrimRight(line, " \t")
		switch {
		case bytes.Equal(trimmed, delim):
			if inPart {
				chunks = append(chunks, trimTrailingCRLF(current))
			}
			current = nil
			inPart = true
		case bytes.Equal(trimmed, append(append([]byte{}, delim...), '-', '-')):
			if inPart {
				chunks = append(chunks, trimTrailingCRLF(current))
			}
			inPart = false
			closed = true
		default:
			if inPart {
				current = append(current, line...)
				current = append(current, '\r', '\n')
			}
		}
		if closed {
			break
		}
	}
	if !closed && inPart {
		// Tolerate a missing closing delimiter (seen in real phishing mail).
		chunks = append(chunks, trimTrailingCRLF(current))
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("mime: no parts found for boundary %q", boundary)
	}
	return chunks, nil
}

func trimTrailingCRLF(b []byte) []byte {
	return bytes.TrimSuffix(b, []byte("\r\n"))
}

// decodeTransfer decodes a Content-Transfer-Encoding.
func decodeTransfer(body []byte, encoding string) ([]byte, error) {
	switch strings.ToLower(strings.TrimSpace(encoding)) {
	case "", "7bit", "8bit", "binary":
		return body, nil
	case "base64":
		cleaned := removeWhitespace(body)
		out := make([]byte, base64.StdEncoding.DecodedLen(len(cleaned)))
		n, err := base64.StdEncoding.Decode(out, cleaned)
		if err != nil {
			return nil, fmt.Errorf("mime: decoding base64 body: %w", err)
		}
		if n > len(out) {
			n = len(out)
		}
		return out[:n], nil
	case "quoted-printable":
		out, err := io.ReadAll(quotedprintable.NewReader(bytes.NewReader(body)))
		if err != nil {
			return nil, fmt.Errorf("mime: decoding quoted-printable body: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("mime: unsupported transfer encoding %q", encoding)
	}
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
