package mime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// _headerSeeds are header blocks at the edges of textproto's reader:
// folded lines, a leading continuation line on both sides of the 80 bytes
// it quotes, lines without a colon, a space before the colon, control and
// high bytes, blank-only continuation lines, repeated fields, bare LF line
// ends, and blocks without the blank line that ends them.
var _headerSeeds = []string{
	"Subject: hello\r\nFrom: a@x.example\r\n\r\nbody",
	"Subject: folded\r\n  across\r\n\tthree lines  \r\n\r\nbody",
	"Subject:\r\n  starts on the second line\r\n\r\n",
	"Subject: trailing blank continuation\r\n   \r\nFrom: b\r\n\r\n",
	"Subject: a\r\n \r\n \r\n x\r\n\r\n",
	" leading continuation\r\nSubject: x\r\n\r\n",
	"\tleading tab\r\n\r\n",
	" " + strings.Repeat("x", 80) + "\r\n\r\n",
	" " + strings.Repeat("x", 79) + "\r\n\r\n",
	"Subject x without colon\r\n\r\n",
	"Subject: ok\r\nno colon here\r\n\r\n",
	"Content-Type : text/html\r\n\r\n<p>x</p>",
	"content type: text/html\r\n\r\n",
	": empty name\r\n\r\n",
	"Sub\tject: tab in name\r\n\r\n",
	"Subject: ctrl \x01 byte\r\n\r\n",
	"Subject: del \x7f byte\r\n\r\n",
	"Subject: high \xff\xfe bytes\r\n\r\n",
	"Subject: lone\rCR\r\n\r\n",
	"Subject: folded\r\n ctrl \x02\r\n\r\n",
	"Subject: no blank line",
	"Subject: no blank line\r\n",
	"Subject: no blank line\r\n folded",
	"Subject: no blank line\r\n ",
	"Subject: ends in CR\r",
	"Subject: first\r\nsubject: second\r\nSUBJECT: third\r\n\r\n",
	"Subject: bare\nFrom: lf\n\nbody\n",
	"\r\nSubject: after a leading blank line\r\n\r\n",
	"\r\n\r\nbody only",
	"   \r\n\r\n",
	"",
	"Content-Transfer-Encoding:   base64  \r\nAuthentication-Results: mx; spf=pass;\r\n dkim=pass; dmarc=pass\r\n\r\n",
	"Content-Disposition: attachment;\r\n\tfilename=\"a.pdf\"\r\nX-Odd-Name!#$%&'*+.^_`|~: v\r\n\r\n",
}

// _headerNames are the fields the parser reads, each in three cases.
var _headerNames = []string{
	"Content-Type", "content-type", "CONTENT-TYPE",
	"Content-Disposition", "content-DISPOSITION", "CONTENT-disposition",
	"Content-Transfer-Encoding", "content-transfer-encoding", "Content-transfer-ENCODING",
	"Subject", "subject", "SUBJECT",
	"From", "from", "fROM",
	"Authentication-Results", "authentication-results", "AUTHENTICATION-RESULTS",
}

// checkHeaderScan requires splitHeaderBody over the normalized entity to
// agree with the textproto oracle on the error text, the body and the
// value of every field the parser reads and of name.
func checkHeaderScan(t *testing.T, raw []byte, name string) {
	t.Helper()
	orig := bytes.Clone(raw)
	got, body, err := splitHeaderBody(normalizeCRLF(raw))
	want, wantBody, wantErr := refSplitHeaderBody(orig)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("splitHeaderBody(%q) error = %v, want %v", orig, err, wantErr)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("splitHeaderBody(%q) body = %q, want %q", orig, body, wantBody)
	}
	for _, n := range append(_headerNames[:len(_headerNames):len(_headerNames)], name) {
		if g, w := got.Get(n), want.Get(n); g != w {
			t.Fatalf("splitHeaderBody(%q).Get(%q) = %q, want %q", orig, n, g, w)
		}
	}
	if !bytes.Equal(raw, orig) {
		t.Fatalf("splitHeaderBody modified its input: %q, want %q", raw, orig)
	}
}

// TestHeaderScanMatchesTextproto runs the edge-case blocks and every
// entity of the builder messages through both header readers.
func TestHeaderScanMatchesTextproto(t *testing.T) {
	for _, s := range _headerSeeds {
		checkHeaderScan(t, []byte(s), "Content Type")
	}
	at := time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)
	msg := NewBuilder("it@corp.example", "user@corp.example", "reset", at).
		Auth(AuthResults{SPF: "pass", DKIM: "pass", DMARC: "pass"}).
		Text("see attachment").
		Attach("application/pdf", "invoice.pdf", []byte("%PDF-1.4 fake")).
		Build()
	p, err := Parse(msg)
	if err != nil {
		t.Fatal(err)
	}
	checkHeaderScan(t, msg, "MIME-Version")
	for _, mb := range multipartBodies(t) {
		chunks, err := splitMultipart([]byte(mb[0]), mb[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			checkHeaderScan(t, c, "Content-ID")
		}
	}
	if p.Subject() != "reset" {
		t.Fatalf("Subject() = %q, want %q", p.Subject(), "reset")
	}
}

// FuzzHeaderScan checks the header scan against textproto's reader on
// arbitrary entities, and Get against MIMEHeader.Get for the fields the
// parser reads and one name the fuzzer picks.
func FuzzHeaderScan(f *testing.F) {
	for _, s := range _headerSeeds {
		f.Add([]byte(s), "Content Type")
		f.Add([]byte(s), "x-odd-NAME!#$%&'*+.^_`|~")
	}
	f.Fuzz(func(t *testing.T, raw []byte, name string) {
		checkHeaderScan(t, raw, name)
	})
}

// TestHeaderGetAllocatesOnlyItsValue pins that reading a field converts
// only the value it returns.
func TestHeaderGetAllocatesOnlyItsValue(t *testing.T) {
	h, _, err := splitHeaderBody([]byte("Subject: hello\r\nContent-Type: text/plain\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Get("content-type") }); allocs != 1 {
		t.Errorf("Get allocated %v times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Get("X-Missing") }); allocs != 0 {
		t.Errorf("Get of a missing field allocated %v times, want 0", allocs)
	}
}
