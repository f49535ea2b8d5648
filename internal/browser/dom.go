package browser

import (
	"strings"
	"unicode/utf8"

	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/minijs"
)

// Property counts of the host objects the realm builds, so that each is
// built with its property storage allocated once (minijs Object.Grow).
// TestHostObjectSizes checks them against the builders.
const (
	elementProps     = 9  // newElementObject
	innerHTMLProps   = 3  // installInnerHTML
	documentProps    = 10 // documentObject, before fillRoots
	rootProps        = 3  // fillRoots
	navigatorProps   = 8
	screenProps      = 5
	locationProps    = 11
	windowProps      = 7 // before the profile's optional globals
	xhrProps         = 6
	eventProps       = 5
	consoleProps     = 5
	performanceProps = 1
)

// elementObject wraps an htmlx node as a script-visible element, caching
// wrappers so identity comparisons hold across lookups. The wrappers of
// body, head and html are the document's (see wrapRoots). extra is how
// many properties the caller adds to a new wrapper.
func (pg *page) elementObject(node *htmlx.Node, extra int) *minijs.Object {
	if obj, ok := pg.domCache[node]; ok {
		return obj
	}
	if node == pg.body || node == pg.head || node == pg.html {
		pg.wrapRoots()
		return pg.domCache[node]
	}
	return pg.newElementObject(node, extra)
}

// newElementObject builds and caches the wrapper of an unwrapped node,
// with room for extra properties beyond its own.
func (pg *page) newElementObject(node *htmlx.Node, extra int) *minijs.Object {
	obj := minijs.NewObject()
	if pg.domCache == nil {
		pg.domCache = map[*htmlx.Node]*minijs.Object{}
	}
	pg.domCache[node] = obj
	obj.SetHostData(node)
	obj.Grow(elementProps + extra)

	obj.Set("tagName", minijs.String(strings.ToUpper(node.Tag)))
	obj.Set("id", minijs.String(node.Attr("id")))
	obj.Set("style", minijs.ObjectValue(styleObject(node)))

	obj.Set("getAttribute", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) == 0 {
			return minijs.Null, nil
		}
		name := strings.ToLower(args[0].ToString())
		if v, ok := node.Attrs[name]; ok {
			return minijs.String(v), nil
		}
		return minijs.Null, nil
	}))
	obj.Set("setAttribute", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			pg.wrapRoots()
			if node.Attrs == nil {
				node.Attrs = map[string]string{}
			}
			name := strings.ToLower(args[0].ToString())
			node.Attrs[name] = args[1].ToString()
			pg.afterAttrChange(node, name)
		}
		return minijs.Undefined, nil
	}))
	obj.Set("addEventListener", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			pg.addHandler(node, args[0].ToString(), args[1])
		}
		return minijs.Undefined, nil
	}))
	obj.Set("appendChild", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) == 0 {
			return minijs.Undefined, nil
		}
		childObj := args[0].Object()
		if childObj == nil {
			return minijs.Undefined, nil
		}
		childNode, ok := childObj.HostData().(*htmlx.Node)
		if !ok {
			return minijs.Undefined, nil
		}
		pg.wrapRoots()
		htmlx.AppendChild(node, childNode)
		pg.processNewNode(childNode)
		return args[0], nil
	}))
	obj.Set("click", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		// Script-initiated clicks are untrusted regardless of profile.
		pg.dispatchEvent(node, "click", false)
		return minijs.Undefined, nil
	}))
	obj.Set("getContext", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		// Canvas/WebGL fingerprinting surface.
		ctx := minijs.NewObject()
		if len(args) > 0 && strings.HasPrefix(args[0].ToString(), "webgl") {
			renderer := pg.br.Profile.GPURenderer
			ctx.Set("getParameter", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
				return minijs.String(renderer), nil
			}))
			return minijs.ObjectValue(ctx), nil
		}
		ctx.Set("fillText", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
			return minijs.Undefined, nil
		}))
		ctx.Set("fillRect", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
			return minijs.Undefined, nil
		}))
		obj.Set("toDataURL", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
			return minijs.String("data:image/png;base64,canvas-" + pg.br.Profile.Name), nil
		}))
		return minijs.ObjectValue(ctx), nil
	}))
	return obj
}

// styleObject returns the style object an element's wrapper starts with:
// the declarations of its style attribute, keyed in camel case.
func styleObject(node *htmlx.Node) *minijs.Object {
	style := minijs.NewObject()
	decls := parseStyle(node.Attr("style"))
	style.Grow(len(decls))
	for _, kv := range decls {
		style.Set(cssToCamel(kv[0]), minijs.String(kv[1]))
	}
	return style
}

// afterAttrChange reacts to attribute writes that have side effects.
func (pg *page) afterAttrChange(node *htmlx.Node, name string) {
	if name == "src" && (node.Tag == "img" || node.Tag == "iframe" || node.Tag == "script") {
		pg.processNewNode(node)
	}
}

// processNewNode handles dynamically inserted content: fetch iframe/img
// sources, execute script nodes.
func (pg *page) processNewNode(node *htmlx.Node) {
	htmlx.Walk(node, func(n *htmlx.Node) {
		if n.Kind != htmlx.KindElement {
			return
		}
		switch n.Tag {
		case "img":
			if src := n.Attr("src"); src != "" {
				pg.fetchSubresource(src, "img")
			}
		case "iframe":
			if src := n.Attr("src"); src != "" {
				pg.loadFrame(src)
			}
		case "script":
			if src := n.Attr("src"); src != "" {
				pg.runExternalScript(src)
			} else if text := n.InnerText(); strings.TrimSpace(text) != "" {
				pg.runScript(text, "dynamic")
			}
		}
	})
}

// wrapRoots builds the wrappers of body, head and html with their
// innerHTML snapshots, once. They are the document's body, head and
// documentElement, but a realm builds them only when a script first
// reaches one of them (elementObject, or a miss on the document that runs
// fillRoots) or is about to change the DOM: every host function that
// changes it calls wrapRoots first. Until that first change the DOM is the
// one the document was created with, so each wrapper holds what it would
// have held had it been built with the document.
func (pg *page) wrapRoots() {
	if _, wrapped := pg.domCache[pg.body]; wrapped {
		return
	}
	for _, node := range [...]*htmlx.Node{pg.body, pg.head, pg.html} {
		pg.installInnerHTML(pg.newElementObject(node, innerHTMLProps), node)
	}
}

// fillRoots adds the document's body, head and documentElement; the
// document defers it (minijs Object.Defer) until a script reads a name
// the document does not hold yet.
func (pg *page) fillRoots(doc *minijs.Object) {
	pg.wrapRoots()
	doc.Grow(rootProps)
	doc.Set("body", minijs.ObjectValue(pg.domCache[pg.body]))
	doc.Set("head", minijs.ObjectValue(pg.domCache[pg.head]))
	doc.Set("documentElement", minijs.ObjectValue(pg.domCache[pg.html]))
}

// documentObject builds the document global.
func (pg *page) documentObject() *minijs.Object {
	doc := minijs.NewObject()
	doc.Grow(documentProps)
	body := pg.body

	doc.Set("title", minijs.String(pg.docTitle()))

	doc.Set("getElementById", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) == 0 {
			return minijs.Null, nil
		}
		node := htmlx.FindByID(pg.doc, args[0].ToString())
		if node == nil {
			return minijs.Null, nil
		}
		obj := pg.elementObject(node, innerHTMLProps+1)
		pg.installInnerHTML(obj, node)
		obj.Set("value", minijs.String(node.Attr("value")))
		return minijs.ObjectValue(obj), nil
	}))
	doc.Set("getElementsByTagName", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		arr := minijs.NewArray()
		if len(args) == 0 {
			return minijs.ObjectValue(arr), nil
		}
		for _, n := range htmlx.Find(pg.doc, strings.ToLower(args[0].ToString())) {
			arr.Elems = append(arr.Elems, minijs.ObjectValue(pg.elementObject(n, 0)))
		}
		return minijs.ObjectValue(arr), nil
	}))
	doc.Set("createElement", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		tag := "div"
		if len(args) > 0 {
			tag = strings.ToLower(args[0].ToString())
		}
		node := &htmlx.Node{Kind: htmlx.KindElement, Tag: tag, Attrs: map[string]string{}}
		obj := pg.elementObject(node, innerHTMLProps+1)
		pg.installInnerHTML(obj, node)
		obj.Set("src", minijs.String("")) // settable before attach
		return minijs.ObjectValue(obj), nil
	}))
	doc.Set("addEventListener", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			pg.addHandler(nil, args[0].ToString(), args[1])
		}
		return minijs.Undefined, nil
	}))
	doc.Set("write", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) > 0 {
			pg.wrapRoots()
			frag := htmlx.Parse(args[0].ToString())
			for _, c := range frag.Children {
				htmlx.AppendChild(body, c)
				// Only the newly written nodes are processed; re-walking
				// the whole body would re-execute the calling script.
				pg.processNewNode(c)
			}
		}
		return minijs.Undefined, nil
	}))
	// document.cookie starts as the jar read when the document was
	// created; setCookie writes the jar, if enabled, and reads it again.
	doc.Set("cookie", minijs.String(pg.cookie))
	doc.Set("setCookie", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) > 0 && pg.br.Profile.CookiesEnabled {
			pg.br.setCookie(pg.host(), args[0].ToString())
			doc.Set("cookie", minijs.String(pg.cookieHeader()))
		}
		return minijs.Undefined, nil
	}))
	doc.Set("location", minijs.ObjectValue(pg.location()))
	doc.Set("referrer", minijs.String(pg.referrer))
	doc.Defer(pg.fillRoots)
	return doc
}

// installInnerHTML equips an element wrapper with innerHTML get/set via
// host functions plus a plain property snapshot.
func (pg *page) installInnerHTML(obj *minijs.Object, node *htmlx.Node) {
	update := func() {
		var sb strings.Builder
		for _, c := range node.Children {
			sb.WriteString(htmlx.Render(c))
		}
		obj.Set("innerHTML", minijs.String(sb.String()))
		obj.Set("innerText", minijs.String(node.InnerText()))
	}
	update()
	obj.Set("setInnerHTML", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) == 0 {
			return minijs.Undefined, nil
		}
		pg.wrapRoots()
		frag := htmlx.Parse(args[0].ToString())
		htmlx.ReplaceChildren(node, frag)
		pg.processNewNode(node)
		update()
		return minijs.Undefined, nil
	}))
}

func (pg *page) docTitle() string {
	titles := htmlx.Find(pg.doc, "title")
	if len(titles) > 0 {
		return strings.TrimSpace(titles[0].InnerText())
	}
	return ""
}

// findOrCreate returns the first element with the tag, creating it under
// the document root when the page omitted it.
func (pg *page) findOrCreate(tag string) *htmlx.Node {
	if nodes := htmlx.Find(pg.doc, tag); len(nodes) > 0 {
		return nodes[0]
	}
	node := &htmlx.Node{Kind: htmlx.KindElement, Tag: tag, Attrs: map[string]string{}}
	htmlx.AppendChild(pg.doc, node)
	return node
}

// parseStyle splits "a:b;c:d" into ordered pairs.
func parseStyle(style string) [][2]string {
	var out [][2]string
	for _, part := range strings.Split(style, ";") {
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			continue
		}
		k := strings.TrimSpace(strings.ToLower(kv[0]))
		v := strings.TrimSpace(kv[1])
		if k != "" && v != "" {
			out = append(out, [2]string{k, v})
		}
	}
	return out
}

// styleProp is a CSS property the screenshot layout reads, with the
// names it goes by: its own and its "-color" fallback, in the style
// attribute's dash case and in the camel case of a wrapper's style object.
type styleProp struct {
	css, cssColor     string
	camel, camelColor string
}

func newStyleProp(css string) styleProp {
	return styleProp{css, css + "-color", cssToCamel(css), cssToCamel(css + "-color")}
}

var (
	_propBackground = newStyleProp("background")
	_propColor      = newStyleProp("color")
)

// nextStyleValue returns the value of the first declaration in *style
// whose property is one of names, the way parseStyle would list it: the
// name compared lower-cased and trimmed, the value trimmed and non-empty.
// It consumes *style up to and including that declaration, so calling it
// again yields the next match. Each name must be lower-case ASCII. Unlike
// parseStyle it allocates nothing for an ASCII property name.
func nextStyleValue(style *string, names ...string) (string, bool) {
	for *style != "" {
		part, rest, _ := strings.Cut(*style, ";")
		*style = rest
		k, v, ok := strings.Cut(part, ":")
		if !ok {
			continue
		}
		if v = strings.TrimSpace(v); v == "" {
			continue
		}
		for _, name := range names {
			if stylePropIs(k, name) {
				return v, true
			}
		}
	}
	return "", false
}

// stylePropIs reports whether the raw property name k of a declaration,
// lower-cased and trimmed as parseStyle does, equals name.
func stylePropIs(k, name string) bool {
	for i := 0; i < len(k); i++ {
		if k[i] >= utf8.RuneSelf {
			return strings.TrimSpace(strings.ToLower(k)) == name
		}
	}
	k = strings.TrimSpace(k)
	if len(k) != len(name) {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// cssToCamel converts background-color to backgroundColor.
func cssToCamel(prop string) string {
	parts := strings.Split(prop, "-")
	for i := 1; i < len(parts); i++ {
		if parts[i] != "" {
			parts[i] = strings.ToUpper(parts[i][:1]) + parts[i][1:]
		}
	}
	return strings.Join(parts, "")
}
