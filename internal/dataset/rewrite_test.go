package dataset

import (
	"net/url"
	"strings"
	"testing"

	"crawlerbox/internal/mime"
	"crawlerbox/internal/urlx"
)

// TestRewriteScenario pins the gateway URL-rewrite scenario end to end at
// the dataset layer: link-carrier active messages planned with a Rewrite
// variant render the wrapped URL (not the canonical one) into their MIME
// bytes, and unwrapping recovers exactly the canonical URL the ground
// truth records. Parse-side decoding is covered in internal/crawlerbox.
func TestRewriteScenario(t *testing.T) {
	c := smallCorpus(t)
	counts := map[RewriteWrap]int{}
	c.Each(func(i int, m *Message) bool {
		counts[m.Rewrite]++
		if m.Rewrite == RewriteNone {
			return true
		}
		if m.Category != CatActivePhish ||
			(m.Carrier != CarrierTextLink && m.Carrier != CarrierHTMLLink) {
			t.Fatalf("message %d: rewrite %d on category %v carrier %v",
				i, m.Rewrite, m.Category, m.Carrier)
		}
		body := decodedBodies(t, m.Raw)
		if strings.Contains(body, ">"+m.URL+"<") || strings.Contains(body, ": "+m.URL) {
			t.Errorf("message %d: canonical URL appears unwrapped in rendered body", i)
		}
		wrapped := wrapURL(m, m.URL)
		if !strings.Contains(body, wrapped) {
			t.Errorf("message %d: wrapped URL %q not in rendered body", i, wrapped)
		}
		decoded, layers := urlx.DecodeRewritten(wrapped)
		wantLayers := 1
		if m.Rewrite == RewriteDouble {
			wantLayers = 2
		}
		if layers != wantLayers {
			t.Errorf("message %d: decoded %d layers, want %d", i, layers, wantLayers)
		}
		if decoded != canonicalOf(t, m.URL) {
			t.Errorf("message %d: decoded %q, want canonical %q", i, decoded, m.URL)
		}
		return true
	})
	for _, kind := range []RewriteWrap{RewriteSafeLinks, RewriteURLDefense, RewriteDouble} {
		if counts[kind] == 0 {
			t.Errorf("corpus has no messages with rewrite variant %d", kind)
		}
	}
}

// decodedBodies concatenates every decoded text part of a message, so URL
// assertions see the body content rather than its transfer encoding.
func decodedBodies(t *testing.T, raw []byte) string {
	t.Helper()
	root, err := mime.Parse(raw)
	if err != nil {
		t.Fatalf("parsing rendered message: %v", err)
	}
	var b strings.Builder
	err = mime.Walk(root, func(p *mime.Part) error {
		if strings.HasPrefix(p.ContentType, "text/") {
			b.Write(p.Body)
			b.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// canonicalOf normalizes a ground-truth URL the way extraction does
// (net/url re-encoding), so the comparison tolerates canonicalization.
func canonicalOf(t *testing.T, raw string) string {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatalf("canonicalOf(%q): %v", raw, err)
	}
	return u.String()
}
