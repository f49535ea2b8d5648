package mime

import (
	"bytes"
	"encoding/base64"
	"fmt"
)

// This file keeps the line-copying multipart splitter and the
// strip-then-decode base64 path that the one-pass, subslicing versions in
// message.go replaced. They are the specification: the differential
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
