package pdfx

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParsePDF drives the tolerant parser with writer output (plain and
// Flate-compressed), truncated and corrupted variants, and non-PDF noise.
// The contract under fuzzing: never panic, and never return a nil *Parsed
// without an error. The seed corpus runs as ordinary test cases under
// `go test`; `go test -fuzz=FuzzParsePDF` explores beyond it.
func FuzzParsePDF(f *testing.F) {
	doc := &Document{Pages: []Page{{
		TextLines: []string{"Your mailbox is almost full", "Verify your account now"},
		LinkURIs:  []string{"https://login-verify.example/q?t=abc"},
	}}}
	plain := Build(doc, false)
	compressed := Build(doc, true)
	f.Add(plain)
	f.Add(compressed)
	f.Add(plain[:len(plain)/2])
	f.Add(bytes.Replace(compressed, []byte("stream"), []byte("strean"), 1))
	f.Add([]byte("%PDF-1.4\n1 0 obj\n<< /Type /Action /URI (https://x.example) >>\nendobj\n"))
	f.Add([]byte("%PDF-1.4\n1 0 obj\n<< /Length 99999 >>\nstream\nshort\nendstream\nendobj\n"))
	f.Add([]byte("not a pdf at all"))
	f.Add([]byte{})
	// Deep nesting: dictionaries and arrays nested 17 and 10,000 levels,
	// with a link action at the bottom.
	for _, depth := range []int{17, 10_000} {
		f.Add(pdfObject(strings.Repeat("<< /Next ", depth) +
			"<< /Type /Action /URI (https://deep.example/d) >>" + strings.Repeat(" >>", depth)))
		f.Add(pdfObject(strings.Repeat("[ ", depth) +
			"<< /URI (https://deep.example/a) >>" + strings.Repeat(" ]", depth)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err == nil && p == nil {
			t.Fatal("Parse returned nil *Parsed with nil error")
		}
	})
}

// pdfObject wraps body as the one object of a minimal PDF.
func pdfObject(body string) []byte {
	return []byte("%PDF-1.4\n1 0 obj\n" + body + "\nendobj\n")
}
