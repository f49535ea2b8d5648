package browser

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"crawlerbox/internal/htmlx"
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

// visitRealm visits html under prof and returns the result, with its
// screenshot rendered, and the browser globals its realms built, in order.
// With eager set, every realm builds all of its globals and the document's
// wrappers as soon as it is built, as realms did before they built them on
// demand, and no build is counted.
func visitRealm(t *testing.T, prof Profile, html string, eager bool) (*Result, []string) {
	t.Helper()
	net, _ := testWorld(t, html)
	net.AddDNS("next.example", net.AllocateIP(webnet.IPDatacenter))
	net.Serve("next.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(`<html><body>next</body></html>`)}
	})
	br := New(net, prof, net.AllocateIP(webnet.IPMobile), 1)
	var built []string
	restore := CountGlobalBuilds(func(name string) { built = append(built, name) })
	if eager {
		restore = EagerRealms()
	}
	defer restore()
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	res.RenderScreenshot()
	return res, built
}

// logLines returns a result's console lines logged by console.log.
func logLines(res *Result) []string {
	var out []string
	for _, line := range res.Console {
		if v, ok := strings.CutPrefix(line, "log: "); ok {
			out = append(out, v)
		}
	}
	return out
}

// checkLazyMatchesEager visits html with globals built on demand and with
// every global built up front, and requires the same console, script
// errors, navigations, DOM and screenshot. It returns the lazy result and
// the globals its realms built.
func checkLazyMatchesEager(t *testing.T, prof Profile, html string) (*Result, []string) {
	t.Helper()
	lazy, built := visitRealm(t, prof, html, false)
	eager, _ := visitRealm(t, prof, html, true)
	if got, want := strings.Join(lazy.Console, "\n"), strings.Join(eager.Console, "\n"); got != want {
		t.Errorf("console built on demand:\n%s\nbuilt up front:\n%s", got, want)
	}
	if got, want := strings.Join(lazy.ScriptErrors, "\n"), strings.Join(eager.ScriptErrors, "\n"); got != want {
		t.Errorf("script errors built on demand:\n%s\nbuilt up front:\n%s", got, want)
	}
	if got, want := strings.Join(lazy.Navigations, " "), strings.Join(eager.Navigations, " "); got != want {
		t.Errorf("navigations built on demand %q, built up front %q", got, want)
	}
	if got, want := htmlx.Render(lazy.DOM), htmlx.Render(eager.DOM); got != want {
		t.Errorf("DOM built on demand:\n%s\nbuilt up front:\n%s", got, want)
	}
	if !lazy.Screenshot.Equal(eager.Screenshot) {
		t.Error("the screenshot built on demand differs from the one built up front")
	}
	return lazy, built
}

// scriptPage wraps script in a page with a body, a head and a few elements.
func scriptPage(script string) string {
	return `<html><head><title>Sign in</title></head><body style="background:#eeeeee">` +
		`<div id="a" style="color:navy">first</div><p id="b">second</p>` +
		`<script>` + script + `</script></body></html>`
}

// Aliases of one object are one object whichever name a script reaches it
// by first, and typeof reads the same before and after the global is built.
func TestLazyGlobalsKeepIdentity(t *testing.T) {
	for _, script := range []string{
		`console.log([window.navigator === navigator, self === window, document.location === location,
			window.document === document, window.location === location, window.screen === screen,
			clearTimeout === clearInterval, window.chrome === chrome].join());`,
		`console.log([navigator === window.navigator, window === self, location === document.location,
			document === window.document, location === window.location, screen === window.screen,
			clearInterval === clearTimeout, chrome === window.chrome].join());`,
	} {
		res, _ := checkLazyMatchesEager(t, NotABot(), scriptPage(script))
		if got := logLines(res); len(got) != 1 || got[0] != "true,true,true,true,true,true,true,true" {
			t.Errorf("identities = %q, want all true", got)
		}
	}
	res, built := checkLazyMatchesEager(t, NotABot(), scriptPage(
		`console.log(typeof navigator + " " + typeof navigator + " " + typeof setTimeout + " " +
			typeof chrome + " " + typeof cdc_adoQpoasnfa76pfcZLmcfl_Array + " " + typeof nothing);`))
	if got := logLines(res); len(got) != 1 || got[0] != "object object function object undefined undefined" {
		t.Errorf("typeof readings = %q", got)
	}
	if want := "console navigator setTimeout chrome"; strings.Join(built, " ") != want {
		t.Errorf("built %q, want %q: a global is built once, and only one the profile has", built, want)
	}
	bot := NotABot()
	bot.ChromeObject = false
	bot.CDPArtifacts = true
	bot.ChromedriverArtifacts = true
	res, _ = checkLazyMatchesEager(t, bot, scriptPage(
		`console.log(typeof chrome + " " + typeof window.chrome + " " + typeof cdc_adoQpoasnfa76pfcZLmcfl_Array + " " +
			typeof cdc_adoQpoasnfa76pfcZLmcfl_Promise + " " + __driverEvaluateHook + " " +
			window.__webdriver_evaluate + " " + window["$chrome_asyncScriptInfo"]);`))
	if got := logLines(res); len(got) != 1 || got[0] != "undefined undefined object object true true true" {
		t.Errorf("a driver profile's globals read %q", got)
	}
}

// Assigning or declaring a global's name before any script reads it binds
// the script's value and builds nothing; window still holds the browser's
// own object.
func TestAssignedGlobalIsNeverBuilt(t *testing.T) {
	res, built := checkLazyMatchesEager(t, NotABot(), scriptPage(
		`navigator = 5; var screen; console.log(typeof navigator + " " + typeof screen + " " +
			typeof window.navigator + " " + window.navigator.platform + " " + (window.screen.width > 0));`))
	if got := logLines(res); len(got) != 1 || got[0] != "number undefined object Win32 true" {
		t.Errorf("readings = %q", got)
	}
	for _, name := range built {
		if name == "navigator" || name == "screen" {
			t.Errorf("the script bound %s first, yet the realm built it", name)
		}
	}
}

// Navigation through location.href, window.location and document.location
// is detected when the objects were built on demand, and a script that
// reaches none of them navigates nowhere.
func TestLazyLocationNavigates(t *testing.T) {
	for _, tc := range []struct{ script, final string }{
		{`location.href = "https://next.example/a";`, "https://next.example/a"},
		{`window.location = "https://next.example/b";`, "https://next.example/b"},
		{`document.location.href = "https://next.example/c";`, "https://next.example/c"},
		{`window.location.href = "https://next.example/d";`, "https://next.example/d"},
		{`location.replace("https://next.example/e");`, "https://next.example/e"},
		{`var here = 1;`, "https://phish.example/"},
	} {
		res, _ := checkLazyMatchesEager(t, NotABot(), scriptPage(tc.script))
		if res.FinalURL != tc.final {
			t.Errorf("%s: final URL %q, want %q", tc.script, res.FinalURL, tc.final)
		}
	}
}

// A page whose scripts name no browser global builds none of them.
func TestScriptNamingNoGlobalBuildsNone(t *testing.T) {
	_, built := checkLazyMatchesEager(t, NotABot(), scriptPage(
		`var x = Math.floor(2.5) + parseInt("3"); function f(n) { return n * 2 } f(x);`))
	if len(built) != 0 {
		t.Errorf("a script that names no browser global built %q", built)
	}
	_, built = checkLazyMatchesEager(t, NotABot(), scriptPage(`console.log(document.title);`))
	if want := "console document"; strings.Join(built, " ") != want {
		t.Errorf("built %q, want %q", built, want)
	}
}

// body, head and documentElement, with their innerHTML and innerText
// snapshots, are built when a script first reaches them or changes the
// DOM; each must hold what it held when the document built them up front.
func TestLazyDocumentWrappersMatchEager(t *testing.T) {
	for _, script := range []string{
		`document.getElementById("a").setInnerHTML("<b>new</b>"); console.log(document.body.innerHTML);`,
		`document.write("<p>late</p>"); console.log(document.documentElement.innerText);`,
		`var d = document.createElement("div"); document.getElementById("a").appendChild(d);
			console.log(document.head.innerHTML + "|" + document.body.innerHTML);`,
		`var d = document.createElement("div"); d.setInnerHTML("<i>detached</i>"); console.log(document.body.innerText);`,
		`document.getElementById("b").setAttribute("style", "color:red"); console.log(document.body.innerHTML);`,
		`var b = document.getElementsByTagName("body")[0];
			console.log(b === document.body, typeof b.setInnerHTML, b.innerHTML === document.body.innerHTML);`,
		`document.getElementsByTagName("body")[0].setAttribute("style", "background:#000000");`,
		`document.body.style.background = "#000000"; console.log(document.body.style.background);`,
		`document.documentElement.setInnerHTML("<body><p>replaced</p></body>"); console.log(document.body.innerHTML);`,
		`var keys = []; for (var k in document) { keys.push(k) } console.log(keys.join());`,
		`console.log(Object.keys(document).length, "body" in document, JSON.stringify(document.head));`,
		`document.body = null; console.log(typeof document.head, document.body);`,
		`delete document.body; console.log(typeof document.body, typeof document.documentElement);`,
		`document.cookie = "a=1"; console.log(document.cookie, document.referrer, typeof document.body);`,
		`console.log(document.nothing); document.write("<p>after</p>"); console.log(document.body.innerText);`,
		`window.document.getElementById("a").setInnerHTML("x"); console.log(window.document.body.innerText);`,
	} {
		checkLazyMatchesEager(t, NotABot(), scriptPage(script))
	}
	// A body with an id is reached through getElementById first.
	checkLazyMatchesEager(t, NotABot(), `<html><body id="main"><p>hi</p><script>
		var m = document.getElementById("main"); m.setInnerHTML("<p>bye</p>");
		console.log(m === document.body, document.body.innerHTML);</script></body></html>`)
}
