package mime

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"mime/quotedprintable"
)

// This file keeps the line-copying multipart splitter, the
// strip-then-decode base64 path and the streaming quoted-printable decode
// that the one-pass, in-memory versions in message.go replaced. They are the specification: the differential
// tests and fuzz targets in split_test.go require the replacements to
// return the same bytes and the same errors.

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
