package browser

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

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

// shotState is what the screenshot layout reads of a finished page: the
// document, and the style objects scripts may have written through element
// wrappers. Keeping only these lets the page, with its interpreter and
// host functions, be collected before the screenshot is laid out.
type shotState struct {
	doc *htmlx.Node
	// styles maps an element to its wrapper's style object, for the
	// wrappers whose style holds any property.
	styles map[*htmlx.Node]*minijs.Object
}

// newShotState keeps what layout reads of a page whose scripts have
// finished.
func newShotState(pg *page) *shotState {
	st := &shotState{doc: pg.doc}
	for node, obj := range pg.domCache {
		style := obj.Get("style")
		if style.Kind() != minijs.KindObject || style.Object().NumProps() == 0 {
			continue // an empty style object sets no property
		}
		if st.styles == nil {
			st.styles = map[*htmlx.Node]*minijs.Object{}
		}
		st.styles[node] = style.Object()
	}
	// A realm wraps body, head and html only when a script reaches one of
	// them or changes the DOM (wrapRoots). On a page whose scripts did
	// neither, or that ran none, each of them paints with the style its
	// untouched wrapper would hold: a few style keys match only in the
	// wrapper's camel case.
	for _, node := range [...]*htmlx.Node{pg.body, pg.head, pg.html} {
		if _, wrapped := pg.domCache[node]; wrapped || node.Attr("style") == "" {
			continue
		}
		if style := styleObject(node); style.NumProps() > 0 {
			if st.styles == nil {
				st.styles = map[*htmlx.Node]*minijs.Object{}
			}
			st.styles[node] = style
		}
	}
	return st
}

// layout walks the page like the original pipeline's screenshot step and
// returns its display list: block elements stack vertically, inline
// styles set backgrounds and ink colors, text renders in the bitmap font,
// and a document-level hue-rotate filter (the Section V-C2d evasion) is
// applied last when a script installed one. The list starts by filling the
// whole canvas with the body background, so nothing a canvas held before
// shows through its raster, and the walk only reads the page: a document
// without a body lays out the background alone.
func (st *shotState) layout() string {
	var d displayList
	d.b.Grow(256) // most lists fit: one allocation instead of a doubling series
	body := firstElement(st.doc, "body")
	// The canvas starts in the body background, white by default.
	bg := imaging.White
	if c, ok := st.styleColor(body, &_propBackground); ok {
		bg = c
	}
	d.fillRect(0, 0, shotW, shotH, bg)
	if body != nil {
		y := 2
		st.renderBlock(&d, body, &y)
	}
	// Document-level CSS filter installed by script?
	if deg, ok := st.hueRotation(firstElement(st.doc, "html"), body); ok {
		d.hueRotate(deg)
	}
	return d.b.String()
}

// Display-list opcodes. Each is one byte followed by its call's arguments:
// integers as zig-zag varints (encoding/binary's AppendVarint), a color as
// its R, G and B bytes, text as a varint length and its bytes, and an
// angle as the 8 little-endian bytes of its float64 bits.
const (
	opFill byte = 'F' // FillRect(x0, y0, x1, y1, color)
	opText byte = 'T' // DrawText(x, y, ink, text)
	opHue  byte = 'H' // HueRotate(degrees)
)

// displayList records the paint calls of a layout walk, in order, with all
// of their arguments. Rasterizing it onto a shotW×shotH canvas makes
// exactly those calls, so the pixels are a pure function of the list: two
// pages whose lists are equal have equal screenshots.
type displayList struct{ b strings.Builder }

func (d *displayList) fillRect(x0, y0, x1, y1 int, c imaging.RGB) {
	d.b.WriteByte(opFill)
	d.int(x0)
	d.int(y0)
	d.int(x1)
	d.int(y1)
	d.rgb(c)
}

// drawText records drawing text upper-cased, as every row of the layout
// is drawn.
func (d *displayList) drawText(x, y int, text string, ink imaging.RGB) {
	d.b.WriteByte(opText)
	d.int(x)
	d.int(y)
	d.rgb(ink)
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			text = strings.ToUpper(text)
			d.int(len(text))
			d.b.WriteString(text)
			return
		}
	}
	// ASCII: strings.ToUpper, without its copy.
	d.int(len(text))
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		d.b.WriteByte(c)
	}
}

func (d *displayList) hueRotate(deg float64) {
	d.b.WriteByte(opHue)
	bits := math.Float64bits(deg)
	for i := 0; i < 8; i++ {
		d.b.WriteByte(byte(bits >> (8 * i)))
	}
}

func (d *displayList) int(v int) {
	var buf [binary.MaxVarintLen64]byte
	d.b.Write(binary.AppendVarint(buf[:0], int64(v)))
}

func (d *displayList) rgb(c imaging.RGB) {
	d.b.WriteByte(c.R)
	d.b.WriteByte(c.G)
	d.b.WriteByte(c.B)
}

// rasterize makes the paint calls of a display list on img, a shotW×shotH
// canvas. The list's first call fills the whole canvas.
func rasterize(list string, img *imaging.Image) {
	r := listReader{s: list}
	for r.i < len(r.s) {
		switch op := r.byte(); op {
		case opFill:
			x0, y0, x1, y1 := r.int(), r.int(), r.int(), r.int()
			img.FillRect(x0, y0, x1, y1, r.rgb())
		case opText:
			x, y, ink := r.int(), r.int(), r.rgb()
			imaging.DrawText(img, x, y, r.str(r.int()), ink)
		case opHue:
			img.HueRotate(r.float())
		default:
			panic(fmt.Sprintf("browser: display list opcode %q", op))
		}
	}
}

// newCanvas returns an image to rasterize a display list onto. The list
// sets every pixel, so it starts unfilled.
func newCanvas() *imaging.Image { return imaging.MustNew(shotW, shotH, imaging.RGB{}) }

// listReader decodes a display list.
type listReader struct {
	s string
	i int
}

func (r *listReader) byte() byte {
	c := r.s[r.i]
	r.i++
	return c
}

// int decodes a zig-zag varint, as encoding/binary's Varint does.
func (r *listReader) int() int {
	var ux uint64
	for shift := uint(0); ; shift += 7 {
		c := r.byte()
		ux |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return int(x)
}

func (r *listReader) rgb() imaging.RGB {
	return imaging.RGB{R: r.byte(), G: r.byte(), B: r.byte()}
}

func (r *listReader) str(n int) string {
	s := r.s[r.i : r.i+n]
	r.i += n
	return s
}

func (r *listReader) float() float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(r.byte()) << (8 * i)
	}
	return math.Float64frombits(bits)
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

func (st *shotState) renderBlock(d *displayList, node *htmlx.Node, y *int) {
	for _, child := range node.Children {
		if *y >= shotH {
			return
		}
		switch child.Kind {
		case htmlx.KindText:
			text := strings.TrimSpace(child.Text)
			if text != "" {
				st.drawRow(d, node, text, y, false)
			}
		case htmlx.KindElement:
			if !_blockTags[child.Tag] {
				st.renderBlock(d, child, y)
				continue
			}
			switch child.Tag {
			case "input":
				drawInput(d, child, y)
			case "button":
				st.drawRow(d, child, firstText(child, "SUBMIT"), y, true)
			case "img", "iframe":
				drawPlaceholder(d, child, y)
			default:
				// Containers with their own background paint a band first.
				if bg, ok := st.styleColor(child, &_propBackground); ok {
					h := styleHeight(child, 18)
					d.fillRect(0, *y, shotW, *y+h, bg)
				}
				if text := ownText(child); text != "" {
					st.drawRow(d, child, text, y, false)
				}
				st.renderBlock(d, child, y)
			}
		}
	}
}

// drawRow draws one text row styled by the element.
func (st *shotState) drawRow(d *displayList, node *htmlx.Node, text string, y *int, boxed bool) {
	h := styleHeight(node, 14)
	if bg, ok := st.styleColor(node, &_propBackground); ok {
		d.fillRect(4, *y, shotW-4, *y+h, bg)
	} else if boxed {
		d.fillRect(4, *y, shotW-4, *y+h, imaging.RGB{R: 210, G: 210, B: 210})
	}
	ink := imaging.Black
	if c, ok := st.styleColor(node, &_propColor); ok {
		ink = c
	}
	if len(text) > 40 {
		text = text[:40]
	}
	d.drawText(6, *y+3, text, ink)
	*y += h + 2
}

func drawInput(d *displayList, node *htmlx.Node, y *int) {
	d.fillRect(6, *y, shotW-20, *y+12, imaging.RGB{R: 235, G: 235, B: 235})
	ph := node.Attr("placeholder")
	if ph == "" {
		ph = node.Attr("name")
	}
	if len(ph) > 30 {
		ph = ph[:30]
	}
	d.drawText(8, *y+2, ph, imaging.RGB{R: 120, G: 120, B: 120})
	*y += 16
}

func drawPlaceholder(d *displayList, node *htmlx.Node, y *int) {
	d.fillRect(6, *y, 60, *y+20, imaging.RGB{R: 200, G: 205, B: 215})
	alt := node.Attr("alt")
	if len(alt) > 8 {
		alt = alt[:8]
	}
	d.drawText(8, *y+6, alt, imaging.RGB{R: 90, G: 90, B: 90})
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

// styleColor reads a color property, or its "-color" fallback, from the
// element's style attribute or its script-written style object. A nil
// element has neither.
func (st *shotState) styleColor(node *htmlx.Node, prop *styleProp) (imaging.RGB, bool) {
	if node == nil {
		return imaging.RGB{}, false
	}
	for style := node.Attr("style"); ; {
		v, ok := nextStyleValue(&style, prop.css, prop.cssColor)
		if !ok {
			break
		}
		if c, ok := parseColor(v); ok {
			return c, true
		}
	}
	if style, ok := st.styles[node]; ok {
		for _, key := range [...]string{prop.camel, prop.camelColor} {
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
	for style := node.Attr("style"); ; {
		v, ok := nextStyleValue(&style, "height")
		if !ok {
			return def
		}
		if h, ok := parsePx(v); ok {
			return h
		}
	}
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

// hueRotation inspects the documentElement's script-written style, then
// its style attribute, then the body's script-written style for the
// hue-rotate filter evasion; the first filter that parses wins.
func (st *shotState) hueRotation(html, body *htmlx.Node) (float64, bool) {
	if style, ok := st.styles[html]; ok {
		if deg, ok := hueDegrees(style.Get("filter").ToString()); ok {
			return deg, true
		}
	}
	if html != nil {
		for style := html.Attr("style"); ; {
			v, ok := nextStyleValue(&style, "filter")
			if !ok {
				break
			}
			if deg, ok := hueDegrees(v); ok {
				return deg, true
			}
		}
	}
	if style, ok := st.styles[body]; ok {
		return hueDegrees(style.Get("filter").ToString())
	}
	return 0, false
}

// hueDegrees parses a "hue-rotate(<angle>deg)" filter.
func hueDegrees(filter string) (float64, bool) {
	c := strings.ToLower(strings.TrimSpace(filter))
	if !strings.HasPrefix(c, "hue-rotate(") {
		return 0, false
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(c, "hue-rotate("), ")")
	inner = strings.TrimSuffix(inner, "deg")
	deg, err := strconv.ParseFloat(strings.TrimSpace(inner), 64)
	return deg, err == nil
}
