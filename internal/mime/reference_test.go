package mime

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"maps"
	stdmime "mime"
	"mime/quotedprintable"
	"net/textproto"
	"strings"
)

// This file keeps the line-copying multipart splitter, the
// strip-then-decode base64 path, the streaming quoted-printable decode and
// the textproto header reader that the one-pass, in-memory versions in
// message.go and header.go replaced. They are the specification: the
// differential tests and fuzz targets in split_test.go and header_test.go
// require the replacements to return the same bytes and the same errors.

// refSplitHeaderBody normalizes an entity's line ends, separates the
// header block from the body and reads the block with textproto.
func refSplitHeaderBody(raw []byte) (textproto.MIMEHeader, []byte, error) {
	// Normalize bare LF to CRLF for the textproto reader.
	normalized := normalizeCRLF(raw)
	idx := bytes.Index(normalized, []byte("\r\n\r\n"))
	// block is the header block with the blank line that ends it, the
	// form the textproto reader wants. normalized may be the caller's own
	// bytes: body is capped with a full slice expression so an append to
	// it cannot write into their spare capacity, and a header-only entity
	// gets its blank line on a copy.
	var block, body []byte
	if idx < 0 {
		// Header-only entity (empty body) is legal.
		if len(bytes.TrimSpace(normalized)) == 0 {
			return nil, nil, ErrNoHeaders
		}
		block = append(normalized[:len(normalized):len(normalized)], '\r', '\n')
	} else {
		if len(bytes.TrimSpace(normalized[:idx+2])) == 0 {
			return nil, nil, ErrNoHeaders
		}
		block = normalized[:idx+4]
		body = normalized[idx+4 : len(normalized) : len(normalized)]
	}
	// The reader's buffer holds the whole block, not bufio's default
	// 4 KiB: one entity's headers are read once and never refilled.
	r := textproto.NewReader(bufio.NewReaderSize(bytes.NewReader(block), len(block)))
	header, err := r.ReadMIMEHeader()
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("mime: parsing headers: %w", err)
	}
	return header, body, nil
}

// refSplitMultipart splits body into its lines, copies each line of a
// part into a fresh chunk followed by CRLF, and trims the last CRLF.
func refSplitMultipart(body []byte, boundary string) ([][]byte, error) {
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
				chunks = append(chunks, bytes.TrimSuffix(current, []byte("\r\n")))
			}
			current = nil
			inPart = true
		case bytes.Equal(trimmed, append(append([]byte{}, delim...), '-', '-')):
			if inPart {
				chunks = append(chunks, bytes.TrimSuffix(current, []byte("\r\n")))
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
		chunks = append(chunks, bytes.TrimSuffix(current, []byte("\r\n")))
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("mime: no parts found for boundary %q", boundary)
	}
	return chunks, nil
}

// refDecodeBase64 strips CR, LF, space and tab into a copy, then decodes.
func refDecodeBase64(body []byte) ([]byte, error) {
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
}

// refDecodeQP is the quoted-printable transfer decoding through the
// standard library's streaming reader, over a bufio.Reader that holds the
// whole body, so no line is too long for it (quotedprintable.NewReader
// reads through that reader rather than wrap it in its own 4 KiB one).
func refDecodeQP(body []byte) ([]byte, error) {
	br := bufio.NewReaderSize(bytes.NewReader(body), max(len(body)+1, 4096))
	out, err := io.ReadAll(quotedprintable.NewReader(br))
	if err != nil {
		return nil, fmt.Errorf("mime: decoding quoted-printable body: %w", err)
	}
	return out, nil
}

// refWriteBase64 writes body the way the builder wrote a base64 part's
// body before it encoded in 57-byte groups: the whole encoding as one
// string, copied out 76 characters and a CRLF at a time.
func refWriteBase64(buf *bytes.Buffer, body []byte) {
	enc := base64.StdEncoding.EncodeToString(body)
	for len(enc) > 0 {
		n := min(76, len(enc))
		buf.WriteString(enc[:n])
		buf.WriteString("\r\n")
		enc = enc[n:]
	}
}

// refPart is a node of refParse's tree.
type refPart struct {
	Header      textproto.MIMEHeader
	ContentType string
	Params      map[string]string
	Disposition string
	Filename    string
	Body        []byte
	Children    []*refPart
}

// refParse is the parse before line ends were normalized once per message
// and headers were scanned in place: every entity, nested ones included,
// is normalized again and its headers read by textproto.
func refParse(raw []byte, depth int) (*refPart, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	header, body, err := refSplitHeaderBody(raw)
	if err != nil {
		return nil, err
	}
	p := &refPart{Header: header}
	ct := header.Get("Content-Type")
	if ct == "" {
		ct = "text/plain; charset=us-ascii"
	}
	mediaType, params, err := stdmime.ParseMediaType(ct)
	if err != nil {
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
			child, err := refParse(chunk, depth+1)
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, child)
		}
	case p.ContentType == "message/rfc822":
		decoded, _, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
		if child, err := refParse(decoded, depth+1); err == nil {
			p.Children = append(p.Children, child)
		}
	default:
		decoded, _, err := decodeTransfer(body, header.Get("Content-Transfer-Encoding"))
		if err != nil {
			return nil, err
		}
		p.Body = decoded
	}
	return p, nil
}

// diffParse describes the first difference between a parse tree and the
// reference's, or returns "" when they agree on every field the parser
// derives and on the header fields it reads.
func diffParse(got *Part, want *refPart, path string) string {
	switch {
	case got.ContentType != want.ContentType:
		return fmt.Sprintf("%s: content type %q, want %q", path, got.ContentType, want.ContentType)
	case !maps.Equal(got.Params, want.Params):
		return fmt.Sprintf("%s: params %q, want %q", path, got.Params, want.Params)
	case got.Disposition != want.Disposition || got.Filename != want.Filename:
		return fmt.Sprintf("%s: disposition %q %q, want %q %q", path, got.Disposition, got.Filename, want.Disposition, want.Filename)
	case !bytes.Equal(got.Body, want.Body):
		return fmt.Sprintf("%s: body %q, want %q", path, got.Body, want.Body)
	case len(got.Children) != len(want.Children):
		return fmt.Sprintf("%s: %d children, want %d", path, len(got.Children), len(want.Children))
	}
	for _, n := range _headerNames {
		if g, w := got.Header.Get(n), want.Header.Get(n); g != w {
			return fmt.Sprintf("%s: header %s = %q, want %q", path, n, g, w)
		}
	}
	for i := range got.Children {
		if d := diffParse(got.Children[i], want.Children[i], fmt.Sprintf("%s/%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}
