package browser

import (
	"strings"

	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/minijs"
)

// elementObject wraps an htmlx node as a script-visible element, caching
// wrappers so identity comparisons hold across lookups. The wrappers of
// body, head and html are the document's (see wrapRoots).
func (pg *page) elementObject(node *htmlx.Node) *minijs.Object {
	if obj, ok := pg.domCache[node]; ok {
		return obj
	}
	if node == pg.body || node == pg.head || node == pg.html {
		pg.wrapRoots()
		return pg.domCache[node]
	}
	return pg.newElementObject(node)
}

// newElementObject builds and caches the wrapper of an unwrapped node.
func (pg *page) newElementObject(node *htmlx.Node) *minijs.Object {
	obj := minijs.NewObject()
	if pg.domCache == nil {
		pg.domCache = map[*htmlx.Node]*minijs.Object{}
	}
	pg.domCache[node] = obj
	obj.HostData = node

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
		childNode, ok := childObj.HostData.(*htmlx.Node)
		if !ok {
			return minijs.Undefined, nil
		}
		pg.wrapRoots()
		htmlx.AppendChild(node, childNode)
		pg.processNewNode(childNode, childObj)
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
	for _, kv := range parseStyle(node.Attr("style")) {
		style.Set(cssToCamel(kv[0]), minijs.String(kv[1]))
	}
	return style
}

// elementGetDynamic resolves element properties that must read live state.
// It is installed as explicit getter methods because the interpreter has no
// property traps; scripts in the corpus use the method forms too.
func (pg *page) installLiveProps(obj *minijs.Object, node *htmlx.Node) {
	obj.Set("value", minijs.String(node.Attr("value")))
}

// afterAttrChange reacts to attribute writes that have side effects.
func (pg *page) afterAttrChange(node *htmlx.Node, name string) {
	if name == "src" && (node.Tag == "img" || node.Tag == "iframe" || node.Tag == "script") {
		pg.processNewNode(node, nil)
	}
}

// processNewNode handles dynamically inserted content: fetch iframe/img
// sources, execute script nodes.
func (pg *page) processNewNode(node *htmlx.Node, obj *minijs.Object) {
	_ = obj
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
		pg.installInnerHTML(pg.newElementObject(node), node)
	}
}

// fillRoots adds the document's body, head and documentElement; the
// document defers it (minijs Object.Defer) until a script reads a name
// the document does not hold yet.
func (pg *page) fillRoots(doc *minijs.Object) {
	pg.wrapRoots()
	doc.Set("body", minijs.ObjectValue(pg.domCache[pg.body]))
	doc.Set("head", minijs.ObjectValue(pg.domCache[pg.head]))
	doc.Set("documentElement", minijs.ObjectValue(pg.domCache[pg.html]))
}

// documentObject builds the document global.
func (pg *page) documentObject() *minijs.Object {
	doc := minijs.NewObject()
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
		obj := pg.elementObject(node)
		pg.installInnerHTML(obj, node)
		pg.installLiveProps(obj, node)
		return minijs.ObjectValue(obj), nil
	}))
	doc.Set("getElementsByTagName", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		arr := minijs.NewArray()
		if len(args) == 0 {
			return minijs.ObjectValue(arr), nil
		}
		for _, n := range htmlx.Find(pg.doc, strings.ToLower(args[0].ToString())) {
			arr.Elems = append(arr.Elems, minijs.ObjectValue(pg.elementObject(n)))
		}
		return minijs.ObjectValue(arr), nil
	}))
	doc.Set("createElement", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		tag := "div"
		if len(args) > 0 {
			tag = strings.ToLower(args[0].ToString())
		}
		node := &htmlx.Node{Kind: htmlx.KindElement, Tag: tag, Attrs: map[string]string{}}
		obj := pg.elementObject(node)
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
				pg.processNewNode(c, nil)
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
		pg.processNewNode(node, obj)
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
