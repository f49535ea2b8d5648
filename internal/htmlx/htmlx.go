// Package htmlx implements a small HTML tokenizer and document tree used by
// the CrawlerBox parsing phase and the simulated browser. It is not a full
// HTML5 parser; it covers the constructs that matter for phishing analysis:
// elements with quoted/unquoted attributes, raw-text handling for <script>
// and <style>, comments, void elements, entity decoding, and extraction of
// URLs (anchors, forms, iframes, images, meta refresh) and scripts.
package htmlx

import (
	"strings"
)

// NodeKind discriminates tree nodes.
type NodeKind int

// Node kinds.
const (
	KindElement NodeKind = iota + 1
	KindText
	KindComment
)

// Node is one node of the parsed document tree.
type Node struct {
	Kind     NodeKind
	Tag      string            // lowercase tag name for elements
	Attrs    map[string]string // lowercase attribute names
	Text     string            // content for text/comment nodes
	Children []*Node
	Parent   *Node
}

// _voidElements never have closing tags.
var _voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// _rawTextElements swallow content until their literal closing tag.
var _rawTextElements = map[string]bool{"script": true, "style": true, "textarea": true, "title": true}

// Parse builds a document tree from HTML source. It never fails: malformed
// input produces a best-effort tree, mirroring browser behavior (phishing
// pages are routinely malformed on purpose).
func Parse(src string) *Node {
	root := &Node{Kind: KindElement, Tag: "#document", Attrs: map[string]string{}}
	cur := root
	// depth counts the open elements below root. Once it passes
	// walkDepth, open counts them by tag, root included, so a closing tag
	// that matches none is skipped without walking up: a hostile page that
	// nests deep and closes what it never opened would make a walk per
	// closing tag quadratic. A shallow document never builds the map.
	depth := 0
	var open map[string]int
	i := 0
	n := len(src)
	for i < n {
		if src[i] != '<' {
			j := strings.IndexByte(src[i:], '<')
			if j < 0 {
				j = n - i
			}
			// Blank text is dropped once decoded: "&nbsp;" decodes to a
			// space, which a render would write back as blank text.
			if text := DecodeEntities(src[i : i+j]); strings.TrimSpace(text) != "" {
				cur.Children = append(cur.Children, &Node{Kind: KindText, Text: text, Parent: cur})
			}
			i += j
			continue
		}
		// Comment.
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				cur.Children = append(cur.Children, &Node{Kind: KindComment, Text: src[i+4:], Parent: cur})
				break
			}
			cur.Children = append(cur.Children, &Node{Kind: KindComment, Text: src[i+4 : i+4+end], Parent: cur})
			i += 4 + end + 3
			continue
		}
		// Doctype or processing instruction: skip to '>'.
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		// Closing tag.
		if strings.HasPrefix(src[i:], "</") {
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			name := strings.ToLower(trimSpace(src[i+2 : i+end]))
			if open == nil && depth > walkDepth {
				open = map[string]int{}
				for p := cur; p != nil; p = p.Parent {
					open[p.Tag]++
				}
			}
			// Pop up to the matching open element, if present.
			p := cur
			if open != nil && open[name] == 0 {
				p = nil // nothing open to close
			}
			for p != nil && p.Tag != name {
				p = p.Parent
			}
			for ; p != nil && cur != root && cur != p.Parent; cur = cur.Parent {
				depth--
				if open != nil {
					open[cur.Tag]--
				}
			}
			i += end + 1
			continue
		}
		// Opening tag.
		tagEnd := findTagEnd(src, i)
		if tagEnd < 0 {
			break
		}
		raw := src[i+1 : tagEnd]
		selfClose := strings.HasSuffix(trimSpace(raw), "/")
		if selfClose {
			raw = strings.TrimSuffix(trimSpace(raw), "/")
		}
		name, attrs := parseTag(raw)
		i = tagEnd + 1
		if name == "" || name[0] == '!' || name[0] == '?' || name[0] == '/' {
			// "< !x>" and "< /x>" name no element: written back without
			// the space, they would read as a doctype or a closing tag.
			continue
		}
		el := &Node{Kind: KindElement, Tag: name, Attrs: attrs, Parent: cur}
		cur.Children = append(cur.Children, el)
		if _rawTextElements[name] && !selfClose {
			closing := "</" + name
			idx := indexFold(src[i:], closing)
			var content string
			if idx < 0 {
				content = src[i:]
				i = n
			} else {
				content = src[i : i+idx]
				gt := strings.IndexByte(src[i+idx:], '>')
				if gt < 0 {
					i = n
				} else {
					i += idx + gt + 1
				}
			}
			if content != "" {
				el.Children = append(el.Children, &Node{Kind: KindText, Text: content, Parent: el})
			}
			continue
		}
		if !selfClose && !_voidElements[name] {
			cur = el
			depth++
			if open != nil {
				open[name]++
			}
		}
	}
	return root
}

// walkDepth is the nesting depth up to which Parse finds the element a
// closing tag closes by walking up the open elements.
const walkDepth = 64

// findTagEnd returns the index of the '>' closing the tag that starts at
// src[start] == '<', or -1. It reads the tag as parseTag does: a quote
// opens a quoted value only right after an attribute's '=', and a '>'
// anywhere else ends the tag. Quotes in a name quote nothing, so a tag
// rendered back from the tree ends where the parsed one did.
func findTagEnd(src string, start int) int {
	const (
		name    = iota // the tag name
		between        // spaces before an attribute name or after one
		key            // an attribute name
		equals         // after '=', before the value
		value          // an unquoted value
	)
	i := start + 1
	for i < len(src) && isSpace(src[i]) {
		i++
	}
	state := name
	for ; i < len(src); i++ {
		c := src[i]
		if c == '>' {
			return i
		}
		switch space := isSpace(c); state {
		case name, value:
			if space {
				state = between
			}
		case between, key:
			switch {
			case c == '=':
				state = equals
			case space:
				state = between
			default:
				state = key
			}
		case equals:
			switch {
			case c == '"' || c == '\'':
				j := strings.IndexByte(src[i+1:], c)
				if j < 0 {
					return -1
				}
				i += j + 1
				state = between
			case !space:
				state = value
			}
		}
	}
	return -1
}

// trimSpace trims the ASCII spaces the tag reader splits on, and no
// others, so a name never loses a byte the reader would keep.
func trimSpace(s string) string {
	for len(s) > 0 && isSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// parseTag splits a raw tag body into its name and attribute map.
func parseTag(raw string) (string, map[string]string) {
	raw = trimSpace(raw)
	if raw == "" {
		return "", nil
	}
	nameEnd := len(raw)
	for i, r := range raw {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			nameEnd = i
			break
		}
	}
	// A name keeps no trailing '/': "<a//>" is a self-closed "a", which
	// renders back as "<a></a>".
	name := strings.ToLower(strings.TrimRight(raw[:nameEnd], "/"))
	attrs := map[string]string{}
	i := nameEnd
	for i < len(raw) {
		// Skip whitespace.
		for i < len(raw) && isSpace(raw[i]) {
			i++
		}
		if i >= len(raw) {
			break
		}
		// Attribute name.
		keyStart := i
		for i < len(raw) && raw[i] != '=' && !isSpace(raw[i]) {
			i++
		}
		key := strings.ToLower(raw[keyStart:i])
		for i < len(raw) && isSpace(raw[i]) {
			i++
		}
		if i >= len(raw) || raw[i] != '=' {
			if key != "" {
				attrs[key] = "" // boolean attribute
			}
			continue
		}
		i++ // skip '='
		for i < len(raw) && isSpace(raw[i]) {
			i++
		}
		var val string
		if i < len(raw) && (raw[i] == '"' || raw[i] == '\'') {
			q := raw[i]
			i++
			valStart := i
			for i < len(raw) && raw[i] != q {
				i++
			}
			val = raw[valStart:i]
			if i < len(raw) {
				i++
			}
		} else {
			valStart := i
			for i < len(raw) && !isSpace(raw[i]) {
				i++
			}
			val = raw[valStart:i]
		}
		if key != "" {
			attrs[key] = DecodeEntities(val)
		}
	}
	return name, attrs
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func indexFold(s, needle string) int {
	n := len(needle)
	for i := 0; i+n <= len(s); i++ {
		if strings.EqualFold(s[i:i+n], needle) {
			return i
		}
	}
	return -1
}

// _entityDecoder maps the common named and numeric HTML entities back to
// their characters.
var _entityDecoder = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`,
	"&#39;", "'", "&apos;", "'", "&nbsp;", " ",
)

// DecodeEntities decodes the common named and numeric HTML entities.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return _entityDecoder.Replace(s)
}

// Walk visits every node depth-first.
func Walk(root *Node, fn func(*Node)) {
	fn(root)
	for _, c := range root.Children {
		Walk(c, fn)
	}
}

// Find returns all elements with the given tag name.
func Find(root *Node, tag string) []*Node {
	var out []*Node
	Walk(root, func(n *Node) {
		if n.Kind == KindElement && n.Tag == tag {
			out = append(out, n)
		}
	})
	return out
}

// Attr returns an attribute value (empty when absent).
func (n *Node) Attr(name string) string {
	if n.Attrs == nil {
		return ""
	}
	return n.Attrs[strings.ToLower(name)]
}

// InnerText concatenates all text descendants.
func (n *Node) InnerText() string {
	var sb strings.Builder
	Walk(n, func(q *Node) {
		if q.Kind == KindText {
			sb.WriteString(q.Text)
		}
	})
	return sb.String()
}

// LinkRef is a URL reference discovered in a document.
type LinkRef struct {
	URL    string
	Tag    string // element that referenced it
	Attr   string // attribute it came from
	Inline bool   // true for javascript:/data: pseudo-URLs
}

// _urlAttrs maps tags to the attributes that carry URLs.
var _urlAttrs = map[string][]string{
	"a": {"href"}, "area": {"href"}, "link": {"href"}, "base": {"href"},
	"img": {"src"}, "script": {"src"}, "iframe": {"src"}, "frame": {"src"},
	"embed": {"src"}, "source": {"src"}, "form": {"action"},
	"object": {"data"}, "input": {"src", "formaction"}, "button": {"formaction"},
}

// ExtractLinks returns every URL reference in the document, including meta
// refresh redirects. Pseudo-URLs (javascript:, data:) are flagged Inline.
func ExtractLinks(root *Node) []LinkRef {
	var out []LinkRef
	Walk(root, func(n *Node) {
		if n.Kind != KindElement {
			return
		}
		for _, attr := range _urlAttrs[n.Tag] {
			v := strings.TrimSpace(n.Attr(attr))
			if v == "" {
				continue
			}
			out = append(out, LinkRef{
				URL:    v,
				Tag:    n.Tag,
				Attr:   attr,
				Inline: hasPseudoScheme(v),
			})
		}
		// <meta http-equiv="refresh" content="0; url=https://...">
		if n.Tag == "meta" && strings.EqualFold(n.Attr("http-equiv"), "refresh") {
			content := n.Attr("content")
			if idx := indexFold(content, "url="); idx >= 0 {
				u := strings.TrimSpace(content[idx+4:])
				u = strings.Trim(u, `"' `)
				if u != "" {
					out = append(out, LinkRef{URL: u, Tag: "meta", Attr: "content", Inline: hasPseudoScheme(u)})
				}
			}
		}
	})
	return out
}

func hasPseudoScheme(u string) bool {
	lower := strings.ToLower(strings.TrimSpace(u))
	return strings.HasPrefix(lower, "javascript:") || strings.HasPrefix(lower, "data:")
}

// Script is an executable script discovered in a document.
type Script struct {
	Src    string // external source URL, if any
	Source string // inline source text, if any
}

// ExtractScripts returns the document's scripts in order.
func ExtractScripts(root *Node) []Script {
	var out []Script
	Walk(root, func(n *Node) {
		if n.Kind != KindElement || n.Tag != "script" {
			return
		}
		s := Script{Src: strings.TrimSpace(n.Attr("src"))}
		if s.Src == "" {
			s.Source = n.InnerText()
		}
		out = append(out, s)
	})
	return out
}

// HasPasswordInput reports whether the document contains a password field —
// the telltale of a credential-harvesting page.
func HasPasswordInput(root *Node) bool {
	for _, input := range Find(root, "input") {
		if strings.EqualFold(input.Attr("type"), "password") {
			return true
		}
	}
	return false
}
