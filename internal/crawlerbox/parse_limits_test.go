package crawlerbox

import (
	"archive/zip"
	"bytes"
	"compress/zlib"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"crawlerbox/internal/mime"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

// newParser returns a pipeline for parse-only tests: nothing is crawled.
func newParser() *Pipeline {
	return New(webnet.NewInternet(webnet.NewClock(_epoch)), whois.NewRegistry())
}

// TestParseLongQuotedPrintableLine pins that a quoted-printable line longer
// than 4 KiB decodes: a decoy text part made of one such line must not
// hide the link in the message's HTML part.
func TestParseLongQuotedPrintableLine(t *testing.T) {
	const link = "https://decoy-hidden.example/login"
	raw := "From: attacker@phish.ru\r\n" +
		"To: victim@corp.example\r\n" +
		"Subject: Action required\r\n" +
		"MIME-Version: 1.0\r\n" +
		"Content-Type: multipart/alternative; boundary=\"b\"\r\n" +
		"\r\n" +
		"--b\r\n" +
		"Content-Type: text/plain\r\n" +
		"Content-Transfer-Encoding: quoted-printable\r\n" +
		"\r\n" +
		strings.Repeat("a", 5000) + "\r\n" +
		"--b\r\n" +
		"Content-Type: text/html\r\n" +
		"\r\n" +
		"<html><body><a href=\"" + link + "\">Sign in</a></body></html>\r\n" +
		"--b--\r\n"
	res, err := newParser().ParseMessage([]byte(raw))
	if err != nil {
		t.Fatalf("ParseMessage: %v", err)
	}
	if len(res.URLs) != 1 || res.URLs[0].URL != link {
		t.Errorf("URLs = %+v, want the HTML part's %s", res.URLs, link)
	}
}

// zipOf returns an archive of the named members, in order, deflated.
func zipOf(t *testing.T, members ...zipMember) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := zip.NewWriter(&b)
	for _, m := range members {
		w, err := zw.Create(m.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(m.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

type zipMember struct {
	name string
	body []byte
}

// bigHTML returns n members of zipMemberMax bytes of markup each.
func bigHTML(n int) []zipMember {
	body := bytes.Repeat([]byte("a"), zipMemberMax)
	out := make([]zipMember, n)
	for i := range out {
		out[i] = zipMember{name: fmt.Sprintf("page%02d.html", i), body: body}
	}
	return out
}

// zipMessage returns a message carrying archive as a ZIP attachment.
func zipMessage(archive []byte) []byte {
	return mime.NewBuilder("attacker@phish.ru", "victim@corp.example", "Action required", _epoch).
		Text("See the attached archive.").Attach("application/zip", "docs.zip", archive).Build()
}

// htmlBytes sums the markup a parse kept from HTML attachments.
func htmlBytes(res *ParseResult) int {
	n := 0
	for _, a := range res.HTMLAttachments {
		n += len(a.Content)
	}
	return n
}

// TestParseZIPBudget pins the archive budget against the amplification
// probe: a message of a few hundred kilobytes whose ZIP holds 48 members
// of 4 MiB each. Without a budget the parse kept 192 MiB of markup and
// allocated over a gigabyte.
func TestParseZIPBudget(t *testing.T) {
	raw := zipMessage(zipOf(t, bigHTML(48)...))
	p := newParser()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := p.ParseMessage(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := htmlBytes(res); got != zipMessageMax {
		t.Errorf("kept %d bytes of markup, want the budget's %d", got, zipMessageMax)
	}
	if got, want := len(res.HTMLAttachments), zipMessageMax/zipMemberMax; got != want {
		t.Errorf("kept %d attachments, want %d", got, want)
	}
	// Each kept member is read into one buffer of its size and copied to
	// a string once: about twice the budget in all.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*zipMessageMax {
		t.Errorf("parse allocated %d MiB, want at most %d MiB", alloc>>20, 3*zipMessageMax>>20)
	}
}

// TestParseZIPDeclaredSizeLie pins that a member's declared size only
// sizes its buffer within the budget: a member that declares 4 GiB but
// holds a line of text costs at most what is left of the budget, and,
// holding less than it declares, fails its read and is skipped.
func TestParseZIPDeclaredSizeLie(t *testing.T) {
	body := []byte("Open https://liar.example/x now\n")
	var b bytes.Buffer
	zw := zip.NewWriter(&b)
	w, err := zw.CreateRaw(&zip.FileHeader{
		Name:               "note.txt",
		Method:             zip.Store,
		CRC32:              crc32.ChecksumIEEE(body),
		CompressedSize64:   uint64(len(body)),
		UncompressedSize64: 4 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := zipMessage(b.Bytes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := newParser().ParseMessage(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > zipMessageMax {
		t.Errorf("parse allocated %d MiB, want at most the budget's %d MiB", alloc>>20, zipMessageMax>>20)
	}
	if len(res.URLs) != 0 {
		t.Errorf("URLs = %+v: a member holding less than it declares was read", res.URLs)
	}
}

// TestParseMemoByteBudget drives the memo with messages whose archives
// fill the whole budget (each keeps 8 MiB of markup): raw message and kept
// markup both count, so two of them pass parseMemoBytes and the memo keeps
// only the latest, which it still serves.
func TestParseMemoByteBudget(t *testing.T) {
	p := newParser()
	archive := zipOf(t, bigHTML(2)...)
	for i := 0; i < 4; i++ {
		raw := mime.NewBuilder("attacker@phish.ru", "victim@corp.example", fmt.Sprintf("Action required %d", i), _epoch).
			Text("See the attached archive.").Attach("application/zip", "docs.zip", archive).Build()
		res, err := p.ParseMessage(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := htmlBytes(res); got != zipMessageMax {
			t.Fatalf("message %d kept %d bytes of markup, want %d", i, got, zipMessageMax)
		}
		if n := p.ParseMemoLen(); n != 1 {
			t.Fatalf("after message %d the memo holds %d parses, want the one that fits its budget", i, n)
		}
		if hit, _ := p.ParseMessage(raw); hit != res {
			t.Errorf("message %d was not memoised", i)
		}
	}
}

// TestParseZIPMemberCap pins the member count: of an archive of more
// members than the cap, only the first zipMembersMax are read.
func TestParseZIPMemberCap(t *testing.T) {
	members := make([]zipMember, zipMembersMax+16)
	for i := range members {
		members[i] = zipMember{
			name: fmt.Sprintf("note%03d.txt", i),
			body: []byte(fmt.Sprintf("Open https://member-%03d.example/x now\n", i)),
		}
	}
	res, err := newParser().ParseMessage(zipMessage(zipOf(t, members...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != zipMembersMax {
		t.Fatalf("extracted %d URLs, want one from each of the first %d members", len(res.URLs), zipMembersMax)
	}
	if last := res.URLs[len(res.URLs)-1].URL; last != fmt.Sprintf("https://member-%03d.example/x", zipMembersMax-1) {
		t.Errorf("last URL = %s", last)
	}
}

// TestParseZIPBudgetSharedWithNestedEML pins that an EML nested in an
// archive draws on the outer message's budget instead of starting its
// own: the inner archive spends the whole budget, so the outer archive's
// next member is never read.
func TestParseZIPBudgetSharedWithNestedEML(t *testing.T) {
	inner := zipMessage(zipOf(t, bigHTML(3)...))
	outer := zipOf(t,
		zipMember{name: "forwarded.eml", body: inner},
		zipMember{name: "after.txt", body: []byte("Open https://after-budget.example/x now\n")},
	)
	res, err := newParser().ParseMessage(zipMessage(outer))
	if err != nil {
		t.Fatal(err)
	}
	// The inner message is counted at its encoded size, so the inner
	// archive gets a little less than the whole budget.
	if got := htmlBytes(res); got > zipMessageMax {
		t.Errorf("kept %d bytes of markup, over the budget of %d", got, zipMessageMax)
	}
	if len(res.URLs) != 0 {
		t.Errorf("URLs = %+v: a member past the spent budget was read", res.URLs)
	}
}

// TestParsePDFInflateBudget pins the PDF side of the message's budget
// against the amplification probe: a PDF of about 65 KB whose one content
// stream inflates to 64 MiB of spaces. Without a cap the parse allocated
// over 400 MB; now the stream is skipped once it crosses the budget, the
// rest of the document is still read, and a later PDF of the same message
// finds the budget spent.
func TestParsePDFInflateBudget(t *testing.T) {
	// pdf returns a one-object PDF whose content stream is the chunks,
	// Flate-compressed, next to a link annotation.
	pdf := func(chunks ...[]byte) []byte {
		var z bytes.Buffer
		zw := zlib.NewWriter(&z)
		for _, c := range chunks {
			if _, err := zw.Write(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return []byte("%PDF-1.4\n1 0 obj\n<< /Filter /FlateDecode /URI (https://annot.example/a) >>\nstream\n" +
			z.String() + "\nendstream\nendobj\n")
	}
	spaces := make([][]byte, 64)
	for i, mib := 0, bytes.Repeat([]byte(" "), 1<<20); i < len(spaces); i++ {
		spaces[i] = mib
	}
	raw := mime.NewBuilder("attacker@phish.ru", "victim@corp.example", "Invoice", _epoch).
		Text("See the attached invoice.").
		Attach("application/pdf", "invoice.pdf", pdf(spaces...)).
		Attach("application/pdf", "second.pdf", pdf([]byte("BT (Visit https://after-budget.example/x now) Tj ET"))).Build()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := newParser().ParseMessage(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*zipMessageMax {
		t.Errorf("parse allocated %d MiB, want at most %d MiB", alloc>>20, 3*zipMessageMax>>20)
	}
	if len(res.URLs) != 1 || res.URLs[0].URL != "https://annot.example/a" {
		t.Errorf("URLs = %+v, want only the annotation: the second PDF's stream is past the spent budget", res.URLs)
	}
}
