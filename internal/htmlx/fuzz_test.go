package htmlx

import (
	"strings"
	"testing"
)

// FuzzParseHTML feeds the parser hostile markup. The contract: Parse never
// panics, rendering is a fixed point after one parse (the render of the
// parsed tree re-parses to a tree that renders the same), and link and
// script extraction never panic. Phishing pages are malformed on purpose,
// and deep nesting is the cheapest way to stress the recursive walkers.
func FuzzParseHTML(f *testing.F) {
	for _, seed := range []string{
		`<html><head><title>Sign in</title></head><body><h1>Welcome</h1></body></html>`,
		`<a href="https://login.example/?a=1&amp;b=2">x</a><img src=/logo.png alt='l'>`,
		`<form action="/post"><input type="password" name="pw"></form>`,
		`<meta http-equiv="refresh" content="0; url=https://next.example/">`,
		`<script>if (a < b && c > d) { location.href = "</scr" + "ipt>"; }</script><p>after</p>`,
		`<iframe src="javascript:alert(1)"></iframe><script src="https://cdn.example/x.js"></script>`,
		`<!-- unterminated comment <a href="/x">`,
		`<!doctype html><?xml x?><div a=1 b="2" c='3' d>text &lt;&gt;&amp;&quot;&#39;&nbsp;</div>`,
		`<div><p>unclosed <b>tags</div></i></p>`,
		`<br/><img/><div/>text<textarea><b>raw</b></textarea><style>p{}</style>`,
		`<a b"c"=d>`,
		`<`,
		`</>`,
		``,
		strings.Repeat("<div>", 17) + "deep" + strings.Repeat("</div>", 17),
		strings.Repeat("<div>", 10_000) + "deeper" + strings.Repeat("</div>", 10_000),
		strings.Repeat("<div>", 10_000),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		once := Render(doc)
		if twice := Render(Parse(once)); twice != once {
			t.Fatalf("render is not stable under re-parsing:\n once: %q\ntwice: %q", once, twice)
		}
		_ = ExtractLinks(doc)
		_ = ExtractScripts(doc)
	})
}
