package htmlx

import (
	"sort"
	"strings"
)

// Render serializes a tree back to HTML text. Attribute order is sorted for
// determinism; raw-text elements keep their content verbatim.
func Render(n *Node) string {
	var sb strings.Builder
	renderNode(&sb, n)
	return sb.String()
}

func renderNode(sb *strings.Builder, n *Node) {
	switch n.Kind {
	case KindText:
		if n.Parent != nil && _rawTextElements[n.Parent.Tag] {
			sb.WriteString(n.Text)
		} else {
			sb.WriteString(escapeText(n.Text))
		}
	case KindComment:
		sb.WriteString("<!--")
		sb.WriteString(n.Text)
		sb.WriteString("-->")
	case KindElement:
		if n.Tag == "#document" {
			for _, c := range n.Children {
				renderNode(sb, c)
			}
			return
		}
		sb.WriteByte('<')
		sb.WriteString(n.Tag)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sb.WriteByte(' ')
			sb.WriteString(k)
			sb.WriteString(`="`)
			sb.WriteString(escapeAttr(n.Attrs[k]))
			sb.WriteByte('"')
		}
		sb.WriteByte('>')
		if _voidElements[n.Tag] {
			return
		}
		for _, c := range n.Children {
			renderNode(sb, c)
		}
		sb.WriteString("</")
		sb.WriteString(n.Tag)
		sb.WriteByte('>')
	}
}

// The escapers are built once: a strings.Replacer is immutable and safe for
// concurrent use, and building one costs more than most replacements.
var (
	_textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	_attrEscaper = strings.NewReplacer("&", "&amp;", `"`, "&quot;", "<", "&lt;")
)

func escapeText(s string) string { return _textEscaper.Replace(s) }

func escapeAttr(s string) string { return _attrEscaper.Replace(s) }

// FindByID returns the first element with the given id attribute.
func FindByID(root *Node, id string) *Node {
	var found *Node
	Walk(root, func(n *Node) {
		if found == nil && n.Kind == KindElement && n.Attr("id") == id {
			found = n
		}
	})
	return found
}

// ReplaceChildren swaps a node's children for the children of a parsed
// fragment, fixing parent pointers — the innerHTML-assignment primitive.
func ReplaceChildren(n *Node, fragment *Node) {
	n.Children = nil
	for _, c := range fragment.Children {
		c.Parent = n
		n.Children = append(n.Children, c)
	}
}

// AppendChild attaches child to n.
func AppendChild(n, child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}
