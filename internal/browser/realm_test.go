package browser

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"crawlerbox/internal/imaging"
	"crawlerbox/internal/webnet"
)

// A page builds its script realm when it first runs script. These tests pin
// that a page without script builds none, and that a realm built late sees
// and paints what one built with the document would have.

func TestScriptlessPageBuildsNoRealm(t *testing.T) {
	for _, tc := range []struct {
		name, html string
		realm      bool
	}{
		{"static", `<html><body><h1>Sign in</h1><img src="/logo.png"></body></html>`, false},
		{"empty script", `<html><body><script>  </script><p>x</p></body></html>`, false},
		{"inline script", `<html><body><script>var x = 1;</script></body></html>`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, br := testWorld(t, tc.html)
			if !br.Profile.MouseMovement {
				t.Fatal("the profile dispatches no mouse events; the test needs them")
			}
			pages, realms := 0, 0
			restore := CountRealms(func(realm bool) {
				pages++
				if realm {
					realms++
				}
			})
			defer restore()
			if _, err := br.Visit(context.Background(), "https://phish.example/"); err != nil {
				t.Fatal(err)
			}
			want := 0
			if tc.realm {
				want = 1
			}
			if pages != 1 || realms != want {
				t.Errorf("%d pages built %d realms, want 1 page and %d", pages, realms, want)
			}
		})
	}
}

// visitShot visits html and returns its screenshot.
func visitShot(t *testing.T, html string) *imaging.Image {
	t.Helper()
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	return res.RenderScreenshot()
}

// A body filter is read from the body's wrapper, never from its attribute,
// so a page that builds no realm must still paint it.
func TestScriptlessBodyFilterStillRendered(t *testing.T) {
	const content = `<div style="background:#1a3c8c;height:28px;color:white">ACME TRAVEL</div>`
	plain := visitShot(t, `<html><body>`+content+`</body></html>`)
	rotated := visitShot(t, `<html><body style="filter:hue-rotate(4deg)">`+content+`</body></html>`)
	scripted := visitShot(t, `<html><head><script>var noop = 0;</script></head>`+
		`<body style="filter:hue-rotate(4deg)">`+content+`</body></html>`)
	if rotated.Equal(plain) {
		t.Error("a script-less body's hue-rotate filter is not rendered")
	}
	if !rotated.Equal(scripted) {
		t.Error("a script-less body renders differently from the same body with a realm")
	}
}

// "background--color" matches "background-color" only once the wrapper
// camel-cases both to backgroundColor.
func TestScriptlessBodyCamelCasedStillPainted(t *testing.T) {
	shot := visitShot(t, `<html><body style="background--color:navy"><p>hello</p></body></html>`)
	navy := _namedColors["navy"]
	if got := shot.Pix[len(shot.Pix)-1]; got != navy {
		t.Errorf("canvas corner = %v, want the body's navy %v", got, navy)
	}
}

// consoleValue returns the text after prefix on the first console line that
// has it.
func consoleValue(t *testing.T, console []string, prefix string) string {
	t.Helper()
	for _, line := range console {
		if v, ok := strings.CutPrefix(line, "log: "+prefix); ok {
			return v
		}
	}
	t.Fatalf("no %q line in %v", prefix, console)
	return ""
}

// A cookie set by a subresource before the page's first script is not in
// document.cookie: the property reads the jar as it was when the document
// was created.
func TestDocumentCookieReadsJarAtCreation(t *testing.T) {
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	net.AddDNS("cookie.example", net.AllocateIP(webnet.IPDatacenter))
	net.Serve("cookie.example", func(req *webnet.Request) *webnet.Response {
		if req.Path == "/pixel.gif" {
			return &webnet.Response{Status: 200, Body: []byte("gif"),
				Headers: map[string]string{"Set-Cookie": "tracked=1"}}
		}
		return &webnet.Response{Status: 200, Body: []byte(`<html><body>
		<img src="/pixel.gif">
		<script>console.log("cookie:" + document.cookie);</script>
		<script>document.setCookie("late=2"); console.log("after:" + document.cookie);</script>
		</body></html>`)}
	})
	br := New(net, NotABot(), "10.0.0.1", 1)
	res, err := br.Visit(context.Background(), "https://cookie.example/")
	if err != nil {
		t.Fatal(err)
	}
	if got := consoleValue(t, res.Console, "cookie:"); got != "" {
		t.Errorf("document.cookie = %q, want the empty jar of the document's creation", got)
	}
	// A script's own write reads the jar again.
	if got := consoleValue(t, res.Console, "after:"); got != "late=2; tracked=1" {
		t.Errorf("document.cookie after setCookie = %q, want the whole jar", got)
	}
	if br.cookieFor("cookie.example") != "late=2; tracked=1" {
		t.Fatal("the pixel's cookie was not stored; the test proves nothing")
	}
}

// Subresource fetches advance the virtual clock before the first script
// runs; performance.now() still counts from the document's creation. The
// page is read twice, with and without two image round trips of 2 s before
// its script: the readings must differ by the 4000 ms the images took.
func TestPerformanceNowCountsFromDocumentCreation(t *testing.T) {
	reading := func(images string) float64 {
		net, br := testWorld(t, `<html><body>`+images+
			`<script>console.log("now:" + performance.now());</script></body></html>`)
		net.RequestLatency = 2 * time.Second
		res, err := br.Visit(context.Background(), "https://phish.example/")
		if err != nil {
			t.Fatal(err)
		}
		now := consoleValue(t, res.Console, "now:")
		ms, err := strconv.ParseFloat(now, 64)
		if err != nil {
			t.Fatalf("performance.now() = %q: %v", now, err)
		}
		return ms
	}
	without := reading("")
	with := reading(`<img src="/a.png"><img src="/b.png">`)
	if d := with - without; math.Abs(d-4000) > 1e-6 {
		t.Errorf("two 2 s image fetches moved performance.now() by %v ms, want 4000", d)
	}
}

// performance.now() counts the fuel a page's scripts spent, not the fuel
// they have left, so the fuel granted to each script and timer does not
// move it: the first reading is not negative and no reading is below the
// one before it.
func TestPerformanceNowNeverRunsBackwards(t *testing.T) {
	_, br := testWorld(t, `<html><body>
	<script>console.log("now:" + performance.now());</script>
	<script>console.log("now:" + performance.now());</script>
	<script>setTimeout(function() { console.log("now:" + performance.now()); }, 5);</script>
	</body></html>`)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	var readings []float64
	for _, line := range res.Console {
		if v, ok := strings.CutPrefix(line, "log: now:"); ok {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("performance.now() = %q: %v", v, err)
			}
			readings = append(readings, ms)
		}
	}
	if len(readings) != 3 {
		t.Fatalf("got %d readings, want 3: %v", len(readings), res.Console)
	}
	if readings[0] < 0 {
		t.Errorf("first reading %v ms is negative", readings[0])
	}
	for i := 1; i < len(readings); i++ {
		if readings[i] < readings[i-1] {
			t.Errorf("reading %d (%v ms) is below reading %d (%v ms)", i, readings[i], i-1, readings[i-1])
		}
	}
}
