package browser

import (
	"strconv"
	"strings"

	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/minijs"
)

// Screenshot geometry: a compact fixed viewport. The classifier compares
// screenshots by fuzzy hash, so absolute size only needs to be consistent.
const (
	shotW = 256
	shotH = 192
)

// shotState is what the screenshot render reads of a finished page: the
// document, and the style objects scripts may have written through element
// wrappers. Keeping only these lets the page, with its interpreter and
// host functions, be collected before the screenshot is rendered.
type shotState struct {
	doc *htmlx.Node
	// styles maps an element to its wrapper's style object, for the
	// wrappers whose style holds any property.
	styles map[*htmlx.Node]*minijs.Object
}

// newShotState keeps what renderScreenshot reads of a page whose scripts
// have finished.
func newShotState(pg *page) *shotState {
	st := &shotState{doc: pg.doc}
	for node, obj := range pg.domCache {
		style := obj.Get("style")
		if style.Kind() != minijs.KindObject || len(style.Object().Props) == 0 {
			continue // an empty style object sets no property
		}
		if st.styles == nil {
			st.styles = map[*htmlx.Node]*minijs.Object{}
		}
		st.styles[node] = style.Object()
	}
	// The realm wraps body, head and html when it is built. A page that
	// ran no script has no realm, and each of them paints with the style
	// its untouched wrapper would hold: a few style keys match only in the
	// wrapper's camel case.
	for _, node := range [...]*htmlx.Node{pg.body, pg.head, pg.html} {
		if _, wrapped := pg.domCache[node]; wrapped || node.Attr("style") == "" {
			continue
		}
		if style := styleObject(node); len(style.Props) > 0 {
			if st.styles == nil {
				st.styles = map[*htmlx.Node]*minijs.Object{}
			}
			st.styles[node] = style
		}
	}
	return st
}

// renderScreenshot rasterizes the page like the original pipeline's
// screenshot step: block elements stack vertically, inline styles set
// backgrounds and ink colors, text renders in the bitmap font, and a
// document-level hue-rotate filter (the Section V-C2d evasion) is applied
// last when a script installed one. It only reads the page: a document
// without a body paints the background alone.
func renderScreenshot(st *shotState) *imaging.Image {
	body := firstElement(st.doc, "body")
	// The canvas starts in the body background, white by default.
	bg := imaging.White
	if c, ok := st.styleColor(body, "background"); ok {
		bg = c
	}
	img := imaging.MustNew(shotW, shotH, bg)
	if body != nil {
		y := 2
		st.renderBlock(img, body, &y)
	}
	// Document-level CSS filter installed by script?
	if deg, ok := st.hueRotation(); ok {
		img.HueRotate(deg)
	}
	return img
}

// firstElement returns the first element with the tag, or nil.
func firstElement(root *htmlx.Node, tag string) *htmlx.Node {
	if nodes := htmlx.Find(root, tag); len(nodes) > 0 {
		return nodes[0]
	}
	return nil
}

// _blockTags render as stacked rows.
var _blockTags = map[string]bool{
	"div": true, "h1": true, "h2": true, "h3": true, "p": true,
	"form": true, "input": true, "button": true, "a": true, "img": true,
	"iframe": true, "label": true, "header": true, "footer": true,
	"section": true, "span": true,
}

func (st *shotState) renderBlock(img *imaging.Image, node *htmlx.Node, y *int) {
	for _, child := range node.Children {
		if *y >= shotH {
			return
		}
		switch child.Kind {
		case htmlx.KindText:
			text := strings.TrimSpace(child.Text)
			if text != "" {
				st.drawRow(img, node, text, y, false)
			}
		case htmlx.KindElement:
			if !_blockTags[child.Tag] {
				st.renderBlock(img, child, y)
				continue
			}
			switch child.Tag {
			case "input":
				drawInput(img, child, y)
			case "button":
				st.drawRow(img, child, firstText(child, "SUBMIT"), y, true)
			case "img", "iframe":
				drawPlaceholder(img, child, y)
			default:
				// Containers with their own background paint a band first.
				if bg, ok := st.styleColor(child, "background"); ok {
					h := styleHeight(child, 18)
					img.FillRect(0, *y, shotW, *y+h, bg)
				}
				if text := ownText(child); text != "" {
					st.drawRow(img, child, text, y, false)
				}
				st.renderBlock(img, child, y)
			}
		}
	}
}

// drawRow draws one text row styled by the element.
func (st *shotState) drawRow(img *imaging.Image, node *htmlx.Node, text string, y *int, boxed bool) {
	h := styleHeight(node, 14)
	if bg, ok := st.styleColor(node, "background"); ok {
		img.FillRect(4, *y, shotW-4, *y+h, bg)
	} else if boxed {
		img.FillRect(4, *y, shotW-4, *y+h, imaging.RGB{R: 210, G: 210, B: 210})
	}
	ink := imaging.Black
	if c, ok := st.styleColor(node, "color"); ok {
		ink = c
	}
	if len(text) > 40 {
		text = text[:40]
	}
	imaging.DrawText(img, 6, *y+3, strings.ToUpper(text), ink)
	*y += h + 2
}

func drawInput(img *imaging.Image, node *htmlx.Node, y *int) {
	img.FillRect(6, *y, shotW-20, *y+12, imaging.RGB{R: 235, G: 235, B: 235})
	ph := node.Attr("placeholder")
	if ph == "" {
		ph = node.Attr("name")
	}
	if len(ph) > 30 {
		ph = ph[:30]
	}
	imaging.DrawText(img, 8, *y+2, strings.ToUpper(ph), imaging.RGB{R: 120, G: 120, B: 120})
	*y += 16
}

func drawPlaceholder(img *imaging.Image, node *htmlx.Node, y *int) {
	img.FillRect(6, *y, 60, *y+20, imaging.RGB{R: 200, G: 205, B: 215})
	alt := node.Attr("alt")
	if len(alt) > 8 {
		alt = alt[:8]
	}
	imaging.DrawText(img, 8, *y+6, strings.ToUpper(alt), imaging.RGB{R: 90, G: 90, B: 90})
	*y += 24
}

// ownText returns the element's direct text content (not descendants').
func ownText(node *htmlx.Node) string {
	var sb strings.Builder
	for _, c := range node.Children {
		if c.Kind == htmlx.KindText {
			sb.WriteString(c.Text)
		}
	}
	return strings.TrimSpace(sb.String())
}

func firstText(node *htmlx.Node, fallback string) string {
	if t := strings.TrimSpace(node.InnerText()); t != "" {
		return t
	}
	if v := node.Attr("value"); v != "" {
		return v
	}
	return fallback
}

// styleColor reads a color property from the element's style attribute or
// its script-written style object. A nil element has neither.
func (st *shotState) styleColor(node *htmlx.Node, prop string) (imaging.RGB, bool) {
	if node == nil {
		return imaging.RGB{}, false
	}
	for _, kv := range parseStyle(node.Attr("style")) {
		if kv[0] == prop || kv[0] == prop+"-color" {
			if c, ok := parseColor(kv[1]); ok {
				return c, true
			}
		}
	}
	if style, ok := st.styles[node]; ok {
		for _, key := range []string{cssToCamel(prop), cssToCamel(prop + "-color")} {
			if v := style.Get(key); !v.IsUndefined() {
				if c, ok := parseColor(v.ToString()); ok {
					return c, true
				}
			}
		}
	}
	return imaging.RGB{}, false
}

func styleHeight(node *htmlx.Node, def int) int {
	for _, kv := range parseStyle(node.Attr("style")) {
		if kv[0] == "height" {
			if h, ok := parsePx(kv[1]); ok {
				return h
			}
		}
	}
	return def
}

func parsePx(v string) (int, bool) {
	v = strings.TrimSuffix(strings.TrimSpace(v), "px")
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 || n > shotH {
		return 0, false
	}
	return n, true
}

// _namedColors is a small named-color table.
var _namedColors = map[string]imaging.RGB{
	"white": {R: 255, G: 255, B: 255}, "black": {},
	"red": {R: 220, G: 30, B: 30}, "blue": {R: 30, G: 60, B: 220},
	"green": {R: 30, G: 160, B: 60}, "gray": {R: 128, G: 128, B: 128},
	"grey": {R: 128, G: 128, B: 128}, "orange": {R: 240, G: 150, B: 30},
	"yellow": {R: 240, G: 220, B: 40}, "purple": {R: 130, G: 50, B: 180},
	"navy": {R: 20, G: 30, B: 90}, "teal": {R: 20, G: 140, B: 140},
	"silver": {R: 192, G: 192, B: 192},
}

func parseColor(v string) (imaging.RGB, bool) {
	v = strings.ToLower(strings.TrimSpace(v))
	// Strip url(...) backgrounds and keep any trailing color token.
	if strings.HasPrefix(v, "url(") {
		return imaging.RGB{R: 230, G: 230, B: 240}, true
	}
	if c, ok := _namedColors[v]; ok {
		return c, true
	}
	if strings.HasPrefix(v, "#") {
		hex := v[1:]
		if len(hex) == 3 {
			hex = string([]byte{hex[0], hex[0], hex[1], hex[1], hex[2], hex[2]})
		}
		if len(hex) != 6 {
			return imaging.RGB{}, false
		}
		n, err := strconv.ParseUint(hex, 16, 32)
		if err != nil {
			return imaging.RGB{}, false
		}
		return imaging.RGB{R: uint8(n >> 16), G: uint8(n >> 8), B: uint8(n)}, true
	}
	return imaging.RGB{}, false
}

// hueRotation inspects the documentElement's script-written style for the
// hue-rotate filter evasion.
func (st *shotState) hueRotation() (float64, bool) {
	html := firstElement(st.doc, "html")
	body := firstElement(st.doc, "body")
	candidates := []string{}
	if style, ok := st.styles[html]; ok {
		candidates = append(candidates, style.Get("filter").ToString())
	}
	if html != nil {
		for _, kv := range parseStyle(html.Attr("style")) {
			if kv[0] == "filter" {
				candidates = append(candidates, kv[1])
			}
		}
	}
	if style, ok := st.styles[body]; ok {
		candidates = append(candidates, style.Get("filter").ToString())
	}
	for _, c := range candidates {
		c = strings.ToLower(strings.TrimSpace(c))
		if !strings.HasPrefix(c, "hue-rotate(") {
			continue
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(c, "hue-rotate("), ")")
		inner = strings.TrimSuffix(inner, "deg")
		if deg, err := strconv.ParseFloat(strings.TrimSpace(inner), 64); err == nil {
			return deg, true
		}
	}
	return 0, false
}
