package htmlx

import (
	"strings"
	"testing"
)

func TestParseSimpleDocument(t *testing.T) {
	doc := Parse(`<html><body><p>hello</p></body></html>`)
	ps := Find(doc, "p")
	if len(ps) != 1 {
		t.Fatalf("found %d <p>", len(ps))
	}
	if got := strings.TrimSpace(ps[0].InnerText()); got != "hello" {
		t.Errorf("InnerText = %q", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := Parse(`<a href="https://x.com/p" class='big' data-token=abc123 disabled>link</a>`)
	a := Find(doc, "a")[0]
	tests := map[string]string{
		"href":       "https://x.com/p",
		"class":      "big",
		"data-token": "abc123",
		"disabled":   "",
	}
	for k, want := range tests {
		if got := a.Attr(k); got != want {
			t.Errorf("Attr(%q) = %q, want %q", k, got, want)
		}
	}
	if a.Attr("missing") != "" {
		t.Error("missing attribute should be empty")
	}
}

func TestParseEntityDecodingInAttrs(t *testing.T) {
	doc := Parse(`<a href="https://x.com/p?a=1&amp;b=2">x</a>`)
	if got := Find(doc, "a")[0].Attr("href"); got != "https://x.com/p?a=1&b=2" {
		t.Errorf("href = %q", got)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<div><img src="a.png"><br><input type="text"></div>`)
	div := Find(doc, "div")[0]
	if len(div.Children) != 3 {
		t.Fatalf("div children = %d, want 3 (void elements must not nest)", len(div.Children))
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := Parse(`<div><span/>after</div>`)
	div := Find(doc, "div")[0]
	if len(Find(doc, "span")) != 1 {
		t.Fatal("span not parsed")
	}
	var text string
	Walk(div, func(n *Node) {
		if n.Kind == KindText {
			text += n.Text
		}
	})
	if !strings.Contains(text, "after") {
		t.Errorf("text after self-closing tag lost: %q", text)
	}
}

func TestParseScriptRawText(t *testing.T) {
	src := `<script>if (a < b && c > d) { window.location = "https://evil.com"; }</script>`
	doc := Parse(src)
	scripts := ExtractScripts(doc)
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	if !strings.Contains(scripts[0].Source, "a < b && c > d") {
		t.Errorf("script source mangled: %q", scripts[0].Source)
	}
}

func TestParseScriptWithSrc(t *testing.T) {
	doc := Parse(`<script src="https://cdn.example/fp.js"></script>`)
	scripts := ExtractScripts(doc)
	if len(scripts) != 1 || scripts[0].Src != "https://cdn.example/fp.js" {
		t.Fatalf("scripts = %+v", scripts)
	}
	if scripts[0].Source != "" {
		t.Error("external script should have no inline source")
	}
}

func TestParseComments(t *testing.T) {
	doc := Parse(`<div><!-- hidden --><p>shown</p></div>`)
	var comments []string
	Walk(doc, func(n *Node) {
		if n.Kind == KindComment {
			comments = append(comments, n.Text)
		}
	})
	if len(comments) != 1 || !strings.Contains(comments[0], "hidden") {
		t.Errorf("comments = %q", comments)
	}
}

func TestParseMalformedToleration(t *testing.T) {
	cases := []string{
		`<div><p>unclosed`,
		`<a href="broken>text`,
		`<<<<>>>`,
		`</only-closing>`,
		`<div attr=>x</div>`,
		``,
	}
	for _, src := range cases {
		doc := Parse(src) // must not panic
		if doc == nil {
			t.Errorf("Parse(%q) returned nil", src)
		}
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><html><body>x</body></html>`)
	if len(Find(doc, "html")) != 1 {
		t.Error("html element lost after doctype")
	}
}

func TestExtractLinks(t *testing.T) {
	src := `
	<html><head>
	  <link href="https://cdn.x/style.css" rel="stylesheet">
	  <meta http-equiv="refresh" content="0; url=https://redirect.example/next">
	</head><body>
	  <a href="https://evil-site.com/login">click</a>
	  <img src="https://brand.example/logo.png">
	  <iframe src="https://frame.example/inner"></iframe>
	  <form action="https://collect.example/post" method="post"></form>
	  <a href="javascript:void(0)">fake</a>
	</body></html>`
	links := ExtractLinks(Parse(src))
	byURL := map[string]LinkRef{}
	for _, l := range links {
		byURL[l.URL] = l
	}
	for _, want := range []string{
		"https://cdn.x/style.css",
		"https://redirect.example/next",
		"https://evil-site.com/login",
		"https://brand.example/logo.png",
		"https://frame.example/inner",
		"https://collect.example/post",
	} {
		if _, ok := byURL[want]; !ok {
			t.Errorf("link %q not extracted (got %+v)", want, links)
		}
	}
	if js, ok := byURL["javascript:void(0)"]; !ok || !js.Inline {
		t.Errorf("javascript: link should be extracted and flagged Inline: %+v", js)
	}
	if byURL["https://brand.example/logo.png"].Tag != "img" {
		t.Errorf("logo tag = %q", byURL["https://brand.example/logo.png"].Tag)
	}
}

func TestHasPasswordInput(t *testing.T) {
	login := Parse(`<form><input type="email"><input type="PASSWORD"></form>`)
	if !HasPasswordInput(login) {
		t.Error("password input not detected")
	}
	plain := Parse(`<form><input type="text"></form>`)
	if HasPasswordInput(plain) {
		t.Error("false positive password detection")
	}
}

func TestDecodeEntities(t *testing.T) {
	tests := []struct{ in, want string }{
		{"a&amp;b", "a&b"},
		{"&lt;script&gt;", "<script>"},
		{"&quot;x&quot;", `"x"`},
		{"no entities", "no entities"},
		{"&nbsp;", " "},
	}
	for _, tt := range tests {
		if got := DecodeEntities(tt.in); got != tt.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestNestedStructureParenting(t *testing.T) {
	doc := Parse(`<div><section><p>deep</p></section></div>`)
	p := Find(doc, "p")[0]
	if p.Parent == nil || p.Parent.Tag != "section" {
		t.Errorf("p parent = %+v", p.Parent)
	}
	if p.Parent.Parent.Tag != "div" {
		t.Errorf("grandparent = %q", p.Parent.Parent.Tag)
	}
}

func TestQuotedGtInAttribute(t *testing.T) {
	doc := Parse(`<a href="https://x.com/?q=a>b" title="5 > 4">x</a>`)
	a := Find(doc, "a")[0]
	if a.Attr("href") != "https://x.com/?q=a>b" {
		t.Errorf("href = %q", a.Attr("href"))
	}
}

func TestPhishingAttachmentShape(t *testing.T) {
	// The local-redirect HTML attachment shape from Section V-B: a file
	// that loads external resources and rewrites the location via JS
	// without changing the window URL.
	src := `<html><head>
	<script>
	  var target = atob("aHR0cHM6Ly9ldmlsLXNpdGUuY29tL2xvZ2lu");
	  document.body.innerHTML = '<iframe src="' + target + '"></iframe>';
	</script>
	</head><body style="background:url(https://gyazo.example/bg.png)"></body></html>`
	doc := Parse(src)
	scripts := ExtractScripts(doc)
	if len(scripts) != 1 || !strings.Contains(scripts[0].Source, "atob") {
		t.Fatalf("scripts = %+v", scripts)
	}
}

func TestRenderParseRoundTripStable(t *testing.T) {
	// Render(Parse(x)) must be a fixed point: parsing the rendered output
	// and rendering again yields the identical string.
	cases := []string{
		`<html><head><title>T</title></head><body><p>x</p></body></html>`,
		`<div a="1" b="2"><span>s</span><img src="/x.png"></div>`,
		`<form action="/a"><input type="password" name="p"></form>`,
		`<script>if (a < b) { go(); }</script>`,
		`<div><!-- note --><p>after</p></div>`,
		`text &amp; entities <b>bold</b>`,
	}
	for _, src := range cases {
		once := Render(Parse(src))
		twice := Render(Parse(once))
		if once != twice {
			t.Errorf("round trip unstable:\n src: %q\nonce: %q\ntwice: %q", src, once, twice)
		}
	}
}

func TestRenderPreservesStructure(t *testing.T) {
	src := `<html><body><a href="https://x.com/p?a=1&amp;b=2">l</a><input type="password"></body></html>`
	doc := Parse(src)
	re := Parse(Render(doc))
	if len(Find(re, "a")) != 1 || !HasPasswordInput(re) {
		t.Errorf("structure lost: %q", Render(doc))
	}
	if Find(re, "a")[0].Attr("href") != "https://x.com/p?a=1&b=2" {
		t.Errorf("attr lost: %q", Find(re, "a")[0].Attr("href"))
	}
}

func TestFindByID(t *testing.T) {
	doc := Parse(`<div><p id="target">x</p><p id="other">y</p></div>`)
	if n := FindByID(doc, "target"); n == nil || n.InnerText() != "x" {
		t.Error("FindByID failed")
	}
	if FindByID(doc, "absent") != nil {
		t.Error("absent id should return nil")
	}
}

func TestReplaceChildrenAndAppendChild(t *testing.T) {
	doc := Parse(`<div id="host"><p>old</p></div>`)
	host := FindByID(doc, "host")
	ReplaceChildren(host, Parse(`<span>new</span>`))
	if len(host.Children) != 1 || host.Children[0].Tag != "span" {
		t.Errorf("ReplaceChildren: %+v", host.Children)
	}
	if host.Children[0].Parent != host {
		t.Error("parent pointer not fixed")
	}
	extra := &Node{Kind: KindElement, Tag: "em", Attrs: map[string]string{}}
	AppendChild(host, extra)
	if len(host.Children) != 2 || extra.Parent != host {
		t.Error("AppendChild failed")
	}
}

// Past walkDepth, Parse finds the element a closing tag closes through
// per-tag counts instead of a walk; the tree must be the one the walk
// builds at any depth, and closing tags that match nothing must cost no
// walk at all.
func TestParseDeepClosingTagsMatchShallow(t *testing.T) {
	doc := func(d int) string {
		return strings.Repeat("<div>", d) + "<b><i>x</b></nope></div></div><p>y</p></#document><span>z</span>"
	}
	want := func(d int) string {
		return strings.Repeat("<div>", d) + "<b><i>x</i></b>" + "</div></div><p>y</p>" +
			strings.Repeat("</div>", d-2) + "<span>z</span>"
	}
	for _, d := range []int{3, walkDepth, walkDepth + 1, 10 * walkDepth} {
		if got := Render(Parse(doc(d))); got != want(d) {
			t.Errorf("depth %d:\n got %q\nwant %q", d, got, want(d))
		}
	}
	// 100,000 unmatched closing tags under 100,000 open elements: a walk
	// per closing tag would take 10^10 steps.
	const n = 100_000
	root := Parse(strings.Repeat("<div>", n) + strings.Repeat("</x>", n) + "<p>deep</p>")
	depth := 0
	for node := Find(root, "p")[0]; node.Parent != nil; node = node.Parent {
		depth++
	}
	if depth != n+1 {
		t.Errorf("the paragraph sits %d levels deep, want %d", depth, n+1)
	}
}
