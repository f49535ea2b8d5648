package crawlerbox

import (
	"archive/zip"
	"bytes"
	"fmt"
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
	// io.ReadAll regrows its buffer a quarter at a time, about five times
	// a member's size in all, and the markup is then copied to a string:
	// the parse allocates about six times the budget (51 MB when measured).
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 12*zipMessageMax {
		t.Errorf("parse allocated %d MiB, want at most %d MiB", alloc>>20, 12*zipMessageMax>>20)
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
