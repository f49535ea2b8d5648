package browser

import (
	"context"
	"testing"

	"crawlerbox/internal/imaging"
)

// PaintScreenshot repaints every pixel of a reused canvas: each page in
// the sequence must paint exactly what a fresh render of it paints, however
// different the page painted before it. A body background of #000 is the
// zero RGB, the fill imaging.New skips; a hue-rotated page leaves every
// pixel rotated for the plain page after it.
func TestPaintScreenshotRepaintsReusedCanvas(t *testing.T) {
	const content = `<div style="background:#1a3c8c;height:28px;color:white">ACME TRAVEL</div><p>Sign in</p>`
	pages := []struct{ name, html string }{
		{"light", `<html><body><h1>Welcome</h1><p>hello</p></body></html>`},
		{"black background", `<html><body style="background:#000"><p style="color:#fff">night</p></body></html>`},
		{"hue-rotated", `<html><head><script>document.documentElement.style.filter = "hue-rotate(90deg)";</script></head>` +
			`<body style="background:#f4f4f4">` + content + `</body></html>`},
		{"plain", `<html><body style="background:#f4f4f4">` + content + `</body></html>`},
		{"black background after plain", `<html><body style="background:#000"></body></html>`},
	}
	canvas := imaging.MustNew(shotW, shotH, imaging.White)
	shots := map[string]*imaging.Image{}
	for _, pg := range pages {
		_, br := testWorld(t, pg.html)
		res, err := br.Visit(context.Background(), "https://phish.example/")
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		if got := res.PaintScreenshot(canvas); got != canvas {
			t.Fatalf("%s: painted into %p, want the canvas %p", pg.name, got, canvas)
		}
		if res.Screenshot != nil {
			t.Fatalf("%s: painting stored a screenshot on the result", pg.name)
		}
		// The render on read still runs after the paint, and paints the
		// same pixels into an image of its own.
		fresh := res.RenderScreenshot()
		if fresh == canvas || !canvas.Equal(fresh) {
			t.Fatalf("%s: the reused canvas differs from a fresh render", pg.name)
		}
		shots[pg.name] = fresh
		if got := res.PaintScreenshot(canvas); got != fresh {
			t.Fatalf("%s: a rendered result painted instead of returning its screenshot", pg.name)
		}
	}
	if shots["hue-rotated"].Equal(shots["plain"]) {
		t.Fatal("the hue-rotate filter was not rendered; the sequence tests no rotation")
	}
}

// A result whose visit loaded no page has no screenshot to paint, and a
// nil canvas paints into a new image.
func TestPaintScreenshotWithoutCanvasOrPage(t *testing.T) {
	if got := (&Result{}).PaintScreenshot(imaging.MustNew(shotW, shotH, imaging.White)); got != nil {
		t.Fatalf("a result without a page painted %v", got)
	}
	_, br := testWorld(t, `<html><body style="background:navy"><p>x</p></body></html>`)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	got := res.PaintScreenshot(nil)
	if got == nil || res.Screenshot != nil {
		t.Fatalf("nil canvas: painted %v, stored %v", got != nil, res.Screenshot != nil)
	}
	if !got.Equal(res.RenderScreenshot()) || got == res.Screenshot {
		t.Fatal("a nil canvas painted other pixels than the render, or the render kept its image")
	}
}
