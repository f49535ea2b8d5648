package browser

import (
	"strconv"
	"strings"

	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/minijs"
)

// referenceScreenshot is the screenshot render as assembleResult ran it for
// every page before screenshots were rendered on read: straight from the
// live page, with wrapper styles read from pg.domCache. The render-on-read
// tests compare the raster of the display list against it. It differs
// from that code in one point: a missing body or html element is created
// detached instead of appended to the document, so running the reference
// leaves the DOM as the render under test finds it. Such an element is
// empty and has no wrapper, so it paints nothing either way. It keeps its
// own copies of the helpers the layout rewrote (the style scans and the
// input and placeholder rows), so the comparison is against the code as it
// was.
func referenceScreenshot(pg *page) *imaging.Image {
	body := refFindOrCreate(pg, "body")
	bg := imaging.White
	if c, ok := refStyleColor(pg, body, "background"); ok {
		bg = c
	}
	img := imaging.MustNew(shotW, shotH, bg)
	y := 2
	refRenderBlock(pg, img, body, &y)
	if deg, ok := refHueRotation(pg); ok {
		img.HueRotate(deg)
	}
	return img
}

func refFindOrCreate(pg *page, tag string) *htmlx.Node {
	if nodes := htmlx.Find(pg.doc, tag); len(nodes) > 0 {
		return nodes[0]
	}
	return &htmlx.Node{Kind: htmlx.KindElement, Tag: tag, Attrs: map[string]string{}}
}

func refRenderBlock(pg *page, img *imaging.Image, node *htmlx.Node, y *int) {
	for _, child := range node.Children {
		if *y >= shotH {
			return
		}
		switch child.Kind {
		case htmlx.KindText:
			text := strings.TrimSpace(child.Text)
			if text != "" {
				refDrawRow(pg, img, node, text, y, false)
			}
		case htmlx.KindElement:
			if !_blockTags[child.Tag] {
				refRenderBlock(pg, img, child, y)
				continue
			}
			switch child.Tag {
			case "input":
				refDrawInput(img, child, y)
			case "button":
				refDrawRow(pg, img, child, firstText(child, "SUBMIT"), y, true)
			case "img", "iframe":
				refDrawPlaceholder(img, child, y)
			default:
				if bg, ok := refStyleColor(pg, child, "background"); ok {
					h := refStyleHeight(child, 18)
					img.FillRect(0, *y, shotW, *y+h, bg)
				}
				if text := ownText(child); text != "" {
					refDrawRow(pg, img, child, text, y, false)
				}
				refRenderBlock(pg, img, child, y)
			}
		}
	}
}

func refDrawRow(pg *page, img *imaging.Image, node *htmlx.Node, text string, y *int, boxed bool) {
	h := refStyleHeight(node, 14)
	if bg, ok := refStyleColor(pg, node, "background"); ok {
		img.FillRect(4, *y, shotW-4, *y+h, bg)
	} else if boxed {
		img.FillRect(4, *y, shotW-4, *y+h, imaging.RGB{R: 210, G: 210, B: 210})
	}
	ink := imaging.Black
	if c, ok := refStyleColor(pg, node, "color"); ok {
		ink = c
	}
	if len(text) > 40 {
		text = text[:40]
	}
	imaging.DrawText(img, 6, *y+3, strings.ToUpper(text), ink)
	*y += h + 2
}

func refDrawInput(img *imaging.Image, node *htmlx.Node, y *int) {
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

func refDrawPlaceholder(img *imaging.Image, node *htmlx.Node, y *int) {
	img.FillRect(6, *y, 60, *y+20, imaging.RGB{R: 200, G: 205, B: 215})
	alt := node.Attr("alt")
	if len(alt) > 8 {
		alt = alt[:8]
	}
	imaging.DrawText(img, 8, *y+6, strings.ToUpper(alt), imaging.RGB{R: 90, G: 90, B: 90})
	*y += 24
}

func refStyleHeight(node *htmlx.Node, def int) int {
	for _, kv := range parseStyle(node.Attr("style")) {
		if kv[0] == "height" {
			if h, ok := parsePx(kv[1]); ok {
				return h
			}
		}
	}
	return def
}

func refStyleColor(pg *page, node *htmlx.Node, prop string) (imaging.RGB, bool) {
	for _, kv := range parseStyle(node.Attr("style")) {
		if kv[0] == prop || kv[0] == prop+"-color" {
			if c, ok := parseColor(kv[1]); ok {
				return c, true
			}
		}
	}
	if obj, ok := pg.domCache[node]; ok {
		if styleVal := obj.Get("style"); styleVal.Kind() == minijs.KindObject {
			for _, key := range []string{cssToCamel(prop), cssToCamel(prop + "-color")} {
				if v := styleVal.Object().Get(key); !v.IsUndefined() {
					if c, ok := parseColor(v.ToString()); ok {
						return c, true
					}
				}
			}
		}
	}
	return imaging.RGB{}, false
}

func refHueRotation(pg *page) (float64, bool) {
	html := refFindOrCreate(pg, "html")
	candidates := []string{}
	if obj, ok := pg.domCache[html]; ok {
		if styleVal := obj.Get("style"); styleVal.Kind() == minijs.KindObject {
			candidates = append(candidates, styleVal.Object().Get("filter").ToString())
		}
	}
	for _, kv := range parseStyle(html.Attr("style")) {
		if kv[0] == "filter" {
			candidates = append(candidates, kv[1])
		}
	}
	body := refFindOrCreate(pg, "body")
	if obj, ok := pg.domCache[body]; ok {
		if styleVal := obj.Get("style"); styleVal.Kind() == minijs.KindObject {
			candidates = append(candidates, styleVal.Object().Get("filter").ToString())
		}
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
