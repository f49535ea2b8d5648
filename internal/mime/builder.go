package mime

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"mime/quotedprintable"
	"strings"
	"time"
)

// Builder composes RFC-5322 messages for the synthetic corpus. It supports
// plain-text and HTML alternatives, inline and attached files with base64 or
// quoted-printable transfer encoding, attached EML messages, and the
// Authentication-Results header the corpus messages all carry.
type Builder struct {
	from      string
	to        string
	subject   string
	date      time.Time
	auth      AuthResults
	textBody  string
	htmlBody  string
	parts     []builtPart
	extraHdrs [][2]string
}

type builtPart struct {
	contentType string
	filename    string
	disposition string
	encoding    string
	body        []byte
}

// NewBuilder returns a builder with the mandatory envelope fields.
func NewBuilder(from, to, subject string, date time.Time) *Builder {
	return &Builder{
		from:    from,
		to:      to,
		subject: subject,
		date:    date,
		auth:    AuthResults{SPF: "pass", DKIM: "pass", DMARC: "pass"},
	}
}

// Text sets the plain-text body.
func (b *Builder) Text(body string) *Builder {
	b.textBody = body
	return b
}

// HTML sets the HTML body.
func (b *Builder) HTML(body string) *Builder {
	b.htmlBody = body
	return b
}

// Auth overrides the Authentication-Results verdicts.
func (b *Builder) Auth(a AuthResults) *Builder {
	b.auth = a
	return b
}

// Header adds an arbitrary extra top-level header.
func (b *Builder) Header(key, value string) *Builder {
	b.extraHdrs = append(b.extraHdrs, [2]string{key, value})
	return b
}

// Attach adds an attachment with base64 transfer encoding.
func (b *Builder) Attach(contentType, filename string, body []byte) *Builder {
	b.parts = append(b.parts, builtPart{
		contentType: contentType,
		filename:    filename,
		disposition: "attachment",
		encoding:    "base64",
		body:        body,
	})
	return b
}

// Inline adds an inline part (e.g., an embedded image) with base64 encoding.
func (b *Builder) Inline(contentType, filename string, body []byte) *Builder {
	b.parts = append(b.parts, builtPart{
		contentType: contentType,
		filename:    filename,
		disposition: "inline",
		encoding:    "base64",
		body:        body,
	})
	return b
}

// AttachEML nests a complete message as a message/rfc822 attachment.
func (b *Builder) AttachEML(filename string, raw []byte) *Builder {
	b.parts = append(b.parts, builtPart{
		contentType: "message/rfc822",
		filename:    filename,
		disposition: "attachment",
		encoding:    "7bit",
		body:        raw,
	})
	return b
}

// Build renders the message bytes.
func (b *Builder) Build() []byte {
	var buf bytes.Buffer
	writeHeader := func(k, v string) {
		fmt.Fprintf(&buf, "%s: %s\r\n", k, v)
	}
	writeHeader("From", b.from)
	writeHeader("To", b.to)
	writeHeader("Subject", b.subject)
	writeHeader("Date", b.date.UTC().Format(time.RFC1123Z))
	writeHeader("Message-ID", fmt.Sprintf("<%d.%s>", b.date.UnixNano(), hostOf(b.from)))
	writeHeader("MIME-Version", "1.0")
	writeHeader("Authentication-Results", fmt.Sprintf(
		"mx.recipient.example; spf=%s smtp.mailfrom=%s; dkim=%s header.d=%s; dmarc=%s",
		orNone(b.auth.SPF), hostOf(b.from), orNone(b.auth.DKIM), hostOf(b.from), orNone(b.auth.DMARC)))
	for _, h := range b.extraHdrs {
		writeHeader(h[0], h[1])
	}

	bodies := b.bodyParts()
	switch {
	case len(bodies) == 0:
		writeHeader("Content-Type", "text/plain; charset=utf-8")
		buf.WriteString("\r\n")
	case len(bodies) == 1 && len(b.parts) == 0:
		writePart(&buf, bodies[0], true)
	default:
		base := fmt.Sprintf("=_cbx_%x", b.date.UnixNano())
		all := append(bodies, b.parts...)
		if b.textBody != "" && b.htmlBody != "" {
			// Wrap the two bodies in multipart/alternative. They are
			// quoted-printable, which writes the boundary's leading '=' as
			// "=3D", so no line of theirs can match it.
			altBoundary := base + "_alt"
			var alt bytes.Buffer
			for _, p := range bodies {
				fmt.Fprintf(&alt, "--%s\r\n", altBoundary)
				writePart(&alt, p, false)
			}
			fmt.Fprintf(&alt, "--%s--\r\n", altBoundary)
			all = append([]builtPart{{
				contentType: fmt.Sprintf("multipart/alternative; boundary=%q", altBoundary),
				encoding:    "7bit",
				body:        alt.Bytes(),
			}}, b.parts...)
		}
		// The boundary is base unless a part carries a line the parser
		// would take for one of its delimiters, as an attached message
		// built at the same date does; then the first free base_N.
		mark := buf.Len()
		for n := 1; writeMultipart(&buf, base, all); n++ {
			buf.Truncate(mark)
			base = fmt.Sprintf("=_cbx_%x_%d", b.date.UnixNano(), n)
		}
	}
	return buf.Bytes()
}

// writeMultipart writes the Content-Type header and body of a
// multipart/mixed message holding parts, delimited by boundary. It reports
// whether a line of some part would read as a delimiter of boundary, in
// which case the caller discards the output and picks another boundary.
func writeMultipart(buf *bytes.Buffer, boundary string, parts []builtPart) (collides bool) {
	fmt.Fprintf(buf, "Content-Type: multipart/mixed; boundary=%q\r\n\r\n", boundary)
	for _, p := range parts {
		fmt.Fprintf(buf, "--%s\r\n", boundary)
		start := buf.Len()
		writePart(buf, p, false)
		if hasDelimiterLine(buf.Bytes()[start:], boundary) {
			return true
		}
	}
	fmt.Fprintf(buf, "--%s--\r\n", boundary)
	return false
}

// hasDelimiterLine reports whether a line of part reads as a delimiter of
// boundary the way splitMultipart reads one: once trailing spaces and tabs
// are trimmed, the line is "--boundary" or "--boundary--". Lines end at LF,
// with any CR before it dropped, since the parser turns a lone LF into CRLF
// before it splits.
func hasDelimiterLine(part []byte, boundary string) bool {
	for len(part) > 0 {
		line := part
		if i := bytes.IndexByte(part, '\n'); i >= 0 {
			line, part = part[:i], part[i+1:]
		} else {
			part = nil
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		line = bytes.TrimRight(line, " \t")
		rest, ok := bytes.CutPrefix(line, []byte("--"))
		if !ok || !bytes.HasPrefix(rest, []byte(boundary)) {
			continue
		}
		if rest = rest[len(boundary):]; len(rest) == 0 || string(rest) == "--" {
			return true
		}
	}
	return false
}

func (b *Builder) bodyParts() []builtPart {
	var out []builtPart
	if b.textBody != "" {
		out = append(out, builtPart{
			contentType: "text/plain; charset=utf-8",
			encoding:    "quoted-printable",
			body:        []byte(b.textBody),
		})
	}
	if b.htmlBody != "" {
		out = append(out, builtPart{
			contentType: "text/html; charset=utf-8",
			encoding:    "quoted-printable",
			body:        []byte(b.htmlBody),
		})
	}
	return out
}

// writePart writes one part's headers and encoded body. topLevel indicates
// the part doubles as the whole message body (headers already written).
func writePart(buf *bytes.Buffer, p builtPart, topLevel bool) {
	ct := p.contentType
	if p.filename != "" && !strings.Contains(ct, "name=") && !strings.HasPrefix(ct, "multipart/") {
		ct = fmt.Sprintf("%s; name=%q", ct, p.filename)
	}
	fmt.Fprintf(buf, "Content-Type: %s\r\n", ct)
	if p.encoding != "" && p.encoding != "7bit" {
		fmt.Fprintf(buf, "Content-Transfer-Encoding: %s\r\n", p.encoding)
	}
	if p.disposition != "" {
		if p.filename != "" {
			fmt.Fprintf(buf, "Content-Disposition: %s; filename=%q\r\n", p.disposition, p.filename)
		} else {
			fmt.Fprintf(buf, "Content-Disposition: %s\r\n", p.disposition)
		}
	}
	buf.WriteString("\r\n")
	switch p.encoding {
	case "base64":
		enc := base64.StdEncoding.EncodeToString(p.body)
		for len(enc) > 0 {
			n := min(76, len(enc))
			buf.WriteString(enc[:n])
			buf.WriteString("\r\n")
			enc = enc[n:]
		}
	case "quoted-printable":
		w := quotedprintable.NewWriter(buf)
		_, _ = w.Write(p.body)
		_ = w.Close()
		buf.WriteString("\r\n")
	default:
		buf.Write(p.body)
		if !bytes.HasSuffix(p.body, []byte("\r\n")) {
			buf.WriteString("\r\n")
		}
	}
	_ = topLevel
}

func hostOf(addr string) string {
	if i := strings.LastIndexByte(addr, '@'); i >= 0 {
		return strings.Trim(addr[i+1:], "<> ")
	}
	return "unknown.example"
}

func orNone(v string) string {
	if v == "" {
		return "none"
	}
	return v
}
