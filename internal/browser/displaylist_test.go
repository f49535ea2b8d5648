package browser

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crawlerbox/internal/imaging"
)

// listCall is one decoded display-list call, for tests to read.
type listCall struct {
	op         byte
	args       []int
	color      imaging.RGB
	text       string
	hueDegrees float64
}

// decodeList decodes a display list the way rasterize walks it.
func decodeList(list string) []listCall {
	var calls []listCall
	r := listReader{s: list}
	for r.i < len(r.s) {
		c := listCall{op: r.byte()}
		switch c.op {
		case opFill:
			c.args = []int{r.int(), r.int(), r.int(), r.int()}
			c.color = r.rgb()
		case opText:
			c.args = []int{r.int(), r.int()}
			c.color = r.rgb()
			c.text = r.str(r.int())
		case opHue:
			c.hueDegrees = r.float()
		default:
			panic(fmt.Sprintf("opcode %q", c.op))
		}
		calls = append(calls, c)
	}
	return calls
}

func visitList(t *testing.T, html string) string {
	t.Helper()
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	return res.DisplayList()
}

// A page whose scripts restyle it or install the hue-rotate filter records
// the script-written styles in its display list: the restyled band and ink
// and the rotation are calls of the list, so a restyled clone never shares
// its list, or a memoised signature, with the page as served.
func TestDisplayListRecordsScriptStyles(t *testing.T) {
	const page = `<html><head>%s</head><body><div id="banner" style="height:20px">ACME</div><p>sign in</p></body></html>`
	plain := decodeList(visitList(t, fmt.Sprintf(page, "")))
	restyled := decodeList(visitList(t, fmt.Sprintf(page, `<script>
		var b = document.getElementById("banner");
		b.style.backgroundColor = "#1a3c8c";
		b.style.color = "white";
		document.body.style.background = "navy";
		document.documentElement.style.filter = "hue-rotate(90deg)";
	</script>`)))

	if len(plain) == 0 || plain[0].op != opFill || plain[0].args[2] != shotW || plain[0].color != imaging.White {
		t.Fatalf("the plain page's list does not start by filling the canvas white: %+v", plain)
	}
	for _, c := range plain {
		if c.op == opHue {
			t.Fatalf("the plain page's list rotates hue: %+v", plain)
		}
	}

	navy := _namedColors["navy"]
	if restyled[0].op != opFill || restyled[0].color != navy {
		t.Errorf("the body background a script set is not the canvas fill: %+v", restyled[0])
	}
	var band, ink bool
	for _, c := range restyled {
		if c.op == opFill && c.color == (imaging.RGB{R: 0x1a, G: 0x3c, B: 0x8c}) && c.args[3]-c.args[1] == 20 {
			band = true
		}
		if c.op == opText && c.text == "ACME" && c.color == imaging.White {
			ink = true
		}
	}
	if !band || !ink {
		t.Errorf("script-written banner style missing from the list (band %v, ink %v): %+v", band, ink, restyled)
	}
	if last := restyled[len(restyled)-1]; last.op != opHue || last.hueDegrees != 90 {
		t.Errorf("the list does not end with the script's hue-rotate(90deg): %+v", last)
	}
}

// Every row is recorded upper-cased, as it is drawn: an ASCII row by the
// byte loop, any other through strings.ToUpper, truncated rows included.
func TestDisplayListUpperCasesText(t *testing.T) {
	for _, text := range []string{"sign in", "ünïcödé straße", strings.Repeat("é", 25)} {
		var d displayList
		d.drawText(6, 5, text, imaging.Black)
		calls := decodeList(d.b.String())
		if len(calls) != 1 || calls[0].text != strings.ToUpper(text) {
			t.Errorf("drawText(%q) recorded %+v", text, calls)
		}
	}
	var d displayList
	d.fillRect(-3, 1<<20, shotW, -(1 << 40), imaging.RGB{R: 1, G: 2, B: 3})
	d.hueRotate(-4.25)
	calls := decodeList(d.b.String())
	if len(calls) != 2 || fmt.Sprint(calls[0].args) != fmt.Sprint([]int{-3, 1 << 20, shotW, -(1 << 40)}) ||
		calls[0].color != (imaging.RGB{R: 1, G: 2, B: 3}) || calls[1].hueDegrees != -4.25 {
		t.Errorf("calls did not round-trip: %+v", calls)
	}
}

// A generator taken from the free list is re-seeded in place: its stream
// is the one a new generator with the same seed draws, whatever the
// generator drew before.
func TestGeneratorsReseedInPlace(t *testing.T) {
	g := NewGenerators(1)
	first := g.get(5)
	for i := 0; i < 100; i++ {
		first.Float64()
	}
	g.put(first)
	g.put(rand.New(rand.NewSource(1))) // the free list is full: dropped
	reused := g.get(9)
	if reused != first {
		t.Fatal("the idle generator was not reused")
	}
	fresh := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if a, b := reused.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d: re-seeded %v, new %v", i, a, b)
		}
	}
	if g.get(3) == first {
		t.Fatal("a generator in use was handed out again")
	}
	var none *Generators // a nil free list allocates and drops
	none.put(none.get(1))
}

// A browser takes a generator on its first draw only, gives it back on
// Release, and panics on a draw after Release instead of sharing a
// generator another browser holds by then.
func TestBrowserGeneratorLifecycle(t *testing.T) {
	g := NewGenerators(4)
	_, idle := testWorld(t, `<html><body><p>no script</p></body></html>`)
	idle.Generators = g
	idle.Profile.MouseMovement = false
	if _, err := idle.Visit(context.Background(), "https://phish.example/"); err != nil {
		t.Fatal(err)
	}
	if idle.rng != nil {
		t.Fatal("a browser that never drew took a generator")
	}

	used := rand.New(rand.NewSource(77))
	used.Float64()
	g.put(used)
	const script = `<html><body><script>document.body.setInnerHTML("<p>" + Math.random() + "</p>");</script></body></html>`
	_, br := testWorld(t, script)
	br.Generators = g
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if br.rng != used {
		t.Fatal("a browser that drew did not take the idle generator")
	}
	_, own := testWorld(t, script)
	ownRes, err := own.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.HTML != ownRes.HTML || !strings.Contains(res.HTML, "<p>0.") {
		t.Fatalf("a pooled generator drew another stream than the browser's own: %q, %q", res.HTML, ownRes.HTML)
	}
	br.Release()
	if len(g.free) != 1 {
		t.Fatalf("Release left %d generators idle, want 1", len(g.free))
	}
	if res.DisplayList() == "" || res.RenderScreenshot() == nil {
		t.Fatal("a released browser's result no longer renders")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a released browser drew from its stream")
		}
	}()
	_, _ = br.Visit(context.Background(), "https://phish.example/")
}
