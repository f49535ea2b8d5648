package mime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var _testDate = time.Date(2024, 3, 15, 10, 30, 0, 0, time.UTC)

func TestParseSimpleTextMessage(t *testing.T) {
	raw := []byte("From: a@x.com\r\nTo: b@y.com\r\nSubject: Hi\r\n" +
		"Content-Type: text/plain; charset=utf-8\r\n\r\nhello world\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.ContentType != "text/plain" {
		t.Errorf("ContentType = %q", p.ContentType)
	}
	if p.Subject() != "Hi" || p.From() != "a@x.com" {
		t.Errorf("Subject/From = %q/%q", p.Subject(), p.From())
	}
	if !strings.Contains(string(p.Body), "hello world") {
		t.Errorf("Body = %q", p.Body)
	}
}

func TestParseToleratesBareLF(t *testing.T) {
	raw := []byte("From: a@x.com\nSubject: LF only\n\nbody line\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Subject() != "LF only" {
		t.Errorf("Subject = %q", p.Subject())
	}
	if !strings.Contains(string(p.Body), "body line") {
		t.Errorf("Body = %q", p.Body)
	}
}

func TestParseHeaderOnlyMessage(t *testing.T) {
	p, err := Parse([]byte("From: a@x.com\r\nSubject: empty\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != 0 {
		t.Errorf("Body = %q, want empty", p.Body)
	}
}

func TestParseEmptyFails(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Parse([]byte("\r\n\r\n")); err == nil {
		t.Error("whitespace-only input should fail")
	}
}

func TestParseBase64Body(t *testing.T) {
	raw := []byte("From: a@x.com\r\nContent-Type: text/plain\r\n" +
		"Content-Transfer-Encoding: base64\r\n\r\naGVsbG8gcGhpc2g=\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Body) != "hello phish" {
		t.Errorf("Body = %q", p.Body)
	}
}

func TestParseBase64BodyWithLineBreaks(t *testing.T) {
	raw := []byte("Content-Type: application/octet-stream\r\n" +
		"Content-Transfer-Encoding: base64\r\n\r\naGVs\r\nbG8g\r\ncGhp\r\nc2g=\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Body) != "hello phish" {
		t.Errorf("Body = %q", p.Body)
	}
}

func TestParseCorruptBase64Fails(t *testing.T) {
	raw := []byte("Content-Type: text/plain\r\n" +
		"Content-Transfer-Encoding: base64\r\n\r\n!!!not-base64!!!\r\n")
	if _, err := Parse(raw); err == nil {
		t.Error("corrupt base64 should fail")
	}
}

func TestParseQuotedPrintableBody(t *testing.T) {
	raw := []byte("Content-Type: text/plain\r\n" +
		"Content-Transfer-Encoding: quoted-printable\r\n\r\nclick=20here=21\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(p.Body), "click here!") {
		t.Errorf("Body = %q", p.Body)
	}
}

func TestParseUnsupportedEncodingFails(t *testing.T) {
	raw := []byte("Content-Type: text/plain\r\n" +
		"Content-Transfer-Encoding: uuencode\r\n\r\nxxx\r\n")
	if _, err := Parse(raw); err == nil {
		t.Error("unsupported encoding should fail")
	}
}

func TestParseMalformedContentTypeTolerated(t *testing.T) {
	raw := []byte("Content-Type: totally;;;broken===\r\n\r\nbody\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.ContentType != "text/plain" {
		t.Errorf("ContentType = %q, want text/plain fallback", p.ContentType)
	}
}

func TestParseMultipart(t *testing.T) {
	raw := []byte("From: a@x.com\r\n" +
		"Content-Type: multipart/mixed; boundary=\"BOUND\"\r\n\r\n" +
		"preamble to ignore\r\n" +
		"--BOUND\r\nContent-Type: text/plain\r\n\r\npart one\r\n" +
		"--BOUND\r\nContent-Type: text/html\r\n\r\n<p>part two</p>\r\n" +
		"--BOUND--\r\nepilogue\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(p.Children))
	}
	if p.Children[0].ContentType != "text/plain" || !strings.Contains(string(p.Children[0].Body), "part one") {
		t.Errorf("child 0 = %q %q", p.Children[0].ContentType, p.Children[0].Body)
	}
	if p.Children[1].ContentType != "text/html" || !strings.Contains(string(p.Children[1].Body), "part two") {
		t.Errorf("child 1 = %q %q", p.Children[1].ContentType, p.Children[1].Body)
	}
}

func TestParseMultipartMissingCloseTolerated(t *testing.T) {
	raw := []byte("Content-Type: multipart/mixed; boundary=B\r\n\r\n" +
		"--B\r\nContent-Type: text/plain\r\n\r\ntruncated phish\r\n")
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Children) != 1 || !strings.Contains(string(p.Children[0].Body), "truncated phish") {
		t.Fatalf("children = %+v", p.Children)
	}
}

func TestParseMultipartNoBoundaryFails(t *testing.T) {
	raw := []byte("Content-Type: multipart/mixed\r\n\r\nbody\r\n")
	if _, err := Parse(raw); err == nil {
		t.Error("multipart without boundary should fail")
	}
}

// A multipart message attached to one built at the same Date once shared
// the outer boundary, so the outer split cut the attachment at its own
// delimiter lines and it degraded to an opaque body. The outer boundary now
// steps aside; a message without such a line keeps the date's boundary.
func TestAttachEMLBuiltAtSameDateKeepsItsParts(t *testing.T) {
	inner := NewBuilder("evil@phish.ru", "victim@corp.example", "inner lure", _testDate).
		Text("visit https://evil-site.com/x").
		HTML(`<a href="https://evil-site.com/x">verify</a>`).
		Attach("application/pdf", "invoice.pdf", []byte("%PDF-1.4 invoice")).
		Build()
	outer := NewBuilder("fwd@corp.example", "soc@corp.example", "FW: suspicious", _testDate).
		Text("see attached").
		AttachEML("reported.eml", inner).Build()
	p, err := Parse(outer)
	if err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("=_cbx_%x", _testDate.UnixNano())
	if got := p.Params["boundary"]; got == base || !strings.HasPrefix(got, base) {
		t.Errorf("outer boundary = %q, want one derived from but unlike the inner's %q", got, base)
	}
	var eml *Part
	_ = Walk(p, func(q *Part) error {
		if q.ContentType == "message/rfc822" {
			eml = q
		}
		return nil
	})
	if eml == nil || len(eml.Children) != 1 {
		t.Fatal("the attached message did not parse to a message of its own")
	}
	msg := eml.Children[0]
	if msg.Subject() != "inner lure" || msg.Params["boundary"] != base {
		t.Errorf("inner subject %q, boundary %q", msg.Subject(), msg.Params["boundary"])
	}
	var pdf, html bool
	_ = Walk(msg, func(q *Part) error {
		pdf = pdf || q.Filename == "invoice.pdf" && string(q.Body) == "%PDF-1.4 invoice"
		html = html || q.ContentType == "text/html" && bytes.Contains(q.Body, []byte("evil-site.com"))
		return nil
	})
	if !pdf || !html {
		t.Errorf("inner parts: pdf attachment %v, html body %v", pdf, html)
	}

	// Without a colliding line, the boundary is the date's.
	plain, err := Parse(NewBuilder("a@b.example", "c@d.example", "s", _testDate).
		Text("t").Attach("text/plain", "a.txt", []byte("--"+base+"\r\n")).Build())
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Params["boundary"]; got != base {
		t.Errorf("boundary without a collision = %q, want %q", got, base)
	}
}

func TestParseNestedEML(t *testing.T) {
	inner := NewBuilder("evil@phish.ru", "victim@corp.example", "inner lure", _testDate).
		Text("visit https://evil-site.com/x").Build()
	outer := NewBuilder("fwd@corp.example", "soc@corp.example", "FW: suspicious", _testDate).
		Text("see attached").
		AttachEML("reported.eml", inner).Build()
	p, err := Parse(outer)
	if err != nil {
		t.Fatal(err)
	}
	var emlPart *Part
	_ = Walk(p, func(q *Part) error {
		if q.ContentType == "message/rfc822" {
			emlPart = q
		}
		return nil
	})
	if emlPart == nil {
		t.Fatal("no message/rfc822 part found")
	}
	if len(emlPart.Children) != 1 {
		t.Fatalf("EML children = %d", len(emlPart.Children))
	}
	if emlPart.Children[0].Subject() != "inner lure" {
		t.Errorf("inner subject = %q", emlPart.Children[0].Subject())
	}
	var sawURL bool
	_ = Walk(p, func(q *Part) error {
		if bytes.Contains(q.Body, []byte("evil-site.com")) {
			sawURL = true
		}
		return nil
	})
	if !sawURL {
		t.Error("nested URL not reachable through the tree")
	}
}

func TestParseDeepNestingRejected(t *testing.T) {
	msg := NewBuilder("a@x.com", "b@y.com", "level 0", _testDate).Text("core").Build()
	for i := 0; i < MaxDepth+2; i++ {
		msg = NewBuilder("a@x.com", "b@y.com", "wrap", _testDate).
			Text("wrapper").AttachEML("inner.eml", msg).Build()
	}
	// Parsing must not blow the stack; the deepest layers simply stay
	// opaque (graceful degradation), or the parse errors out.
	p, err := Parse(msg)
	if err == nil {
		depth := 0
		cur := p
		for len(cur.Children) > 0 {
			depth++
			cur = cur.Children[len(cur.Children)-1]
		}
		if depth > 3*MaxDepth {
			t.Errorf("parse descended %d levels; depth limit ineffective", depth)
		}
	}
}

func TestBuilderRoundTripBodies(t *testing.T) {
	raw := NewBuilder("sender@phish.ru", "user@corp.example", "Urgent: verify account", _testDate).
		Text("Please visit https://evil-site.com/login now.").
		HTML(`<html><body><a href="https://evil-site.com/login">click</a></body></html>`).
		Build()
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	leaves := Leaves(p)
	var text, html string
	for _, l := range leaves {
		switch l.ContentType {
		case "text/plain":
			text = string(l.Body)
		case "text/html":
			html = string(l.Body)
		}
	}
	if !strings.Contains(text, "https://evil-site.com/login") {
		t.Errorf("text body = %q", text)
	}
	if !strings.Contains(html, `href="https://evil-site.com/login"`) {
		t.Errorf("html body = %q", html)
	}
}

func TestBuilderAttachment(t *testing.T) {
	payload := []byte{0x00, 0x01, 0xFE, 0xFF, 'P', 'K', 0x03, 0x04}
	raw := NewBuilder("a@x.com", "b@y.com", "with attachment", _testDate).
		Text("see attachment").
		Attach("application/octet-stream", "payload.bin", payload).
		Build()
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	var att *Part
	_ = Walk(p, func(q *Part) error {
		if q.Disposition == "attachment" {
			att = q
		}
		return nil
	})
	if att == nil {
		t.Fatal("attachment not found")
	}
	if att.Filename != "payload.bin" {
		t.Errorf("Filename = %q", att.Filename)
	}
	if !bytes.Equal(att.Body, payload) {
		t.Errorf("attachment body = %x, want %x", att.Body, payload)
	}
}

func TestBuilderInlineImagePart(t *testing.T) {
	raw := NewBuilder("a@x.com", "b@y.com", "inline", _testDate).
		HTML("<p>scan the code</p>").
		Inline("image/x-cbi", "qr.cbi", []byte("CBIMxxxx")).
		Build()
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	var inline *Part
	_ = Walk(p, func(q *Part) error {
		if q.Disposition == "inline" {
			inline = q
		}
		return nil
	})
	if inline == nil || inline.ContentType != "image/x-cbi" {
		t.Fatalf("inline part = %+v", inline)
	}
}

func TestBuilderAuthHeader(t *testing.T) {
	raw := NewBuilder("a@sender.example", "b@y.com", "auth", _testDate).Text("x").Build()
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ar := ParseAuthResults(p.Header.Get("Authentication-Results"))
	if !ar.PassesAuth() {
		t.Errorf("default build should pass auth, got %+v", ar)
	}
	raw = NewBuilder("a@x.com", "b@y.com", "auth", _testDate).
		Auth(AuthResults{SPF: "fail", DKIM: "pass", DMARC: "pass"}).Text("x").Build()
	p, err = Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ar = ParseAuthResults(p.Header.Get("Authentication-Results"))
	if ar.PassesAuth() || ar.SPF != "fail" {
		t.Errorf("auth override not honored: %+v", ar)
	}
}

func TestParseAuthResults(t *testing.T) {
	tests := []struct {
		value string
		want  AuthResults
	}{
		{"mx.x; spf=pass a; dkim=pass b; dmarc=pass c", AuthResults{"pass", "pass", "pass"}},
		{"mx.x; SPF=Fail; dkim=none", AuthResults{SPF: "fail", DKIM: "none"}},
		{"", AuthResults{}},
	}
	for _, tt := range tests {
		if got := ParseAuthResults(tt.value); got != tt.want {
			t.Errorf("ParseAuthResults(%q) = %+v, want %+v", tt.value, got, tt.want)
		}
	}
}

func TestWalkOrderAndLeaves(t *testing.T) {
	raw := NewBuilder("a@x.com", "b@y.com", "multi", _testDate).
		Text("one").HTML("<p>two</p>").
		Attach("application/pdf", "doc.pdf", []byte("%PDF-fake")).
		Build()
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	var visited int
	_ = Walk(p, func(q *Part) error {
		visited++
		return nil
	})
	leaves := Leaves(p)
	if len(leaves) != 3 {
		t.Errorf("leaves = %d, want 3 (text, html, pdf)", len(leaves))
	}
	if visited <= len(leaves) {
		t.Errorf("walk visited %d nodes, should include containers", visited)
	}
}

func TestWalkStopsOnError(t *testing.T) {
	raw := NewBuilder("a@x.com", "b@y.com", "multi", _testDate).
		Text("one").HTML("<p>two</p>").Build()
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	stop := Walk(p, func(q *Part) error {
		count++
		return ErrTooDeep // arbitrary sentinel
	})
	if stop == nil || count != 1 {
		t.Errorf("walk did not stop on first error: count=%d err=%v", count, stop)
	}
}

func TestBuilderParseRoundTripProperty(t *testing.T) {
	f := func(subjectSeed uint8, bodySeed uint16) bool {
		subject := strings.Repeat("s", int(subjectSeed%20)+1)
		body := "payload " + strings.Repeat("b", int(bodySeed%200))
		raw := NewBuilder("from@a.example", "to@b.example", subject, _testDate).
			Text(body).Build()
		p, err := Parse(raw)
		if err != nil {
			return false
		}
		return p.Subject() == subject && strings.Contains(string(p.Body), "payload")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttachmentBinaryRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		raw := NewBuilder("a@x.example", "b@y.example", "bin", _testDate).
			Text("body").
			Attach("application/octet-stream", "f.bin", payload).
			Build()
		p, err := Parse(raw)
		if err != nil {
			return false
		}
		for _, l := range Leaves(p) {
			if l.Disposition == "attachment" {
				return bytes.Equal(l.Body, payload)
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
