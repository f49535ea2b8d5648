package botdetect

import (
	"context"

	"strings"
	"testing"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/webnet"
)

var _epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// world builds a network with all three detector services and a protected
// origin at secret.example (AnonWAF) plus a BotD-instrumented page at
// page.example and a Turnstile gate at gate.example.
type world struct {
	net   *webnet.Internet
	botd  *BotD
	ts    *Turnstile
	waf   *AnonWAF
	seeds int64
}

func newWorld(t *testing.T) *world {
	t.Helper()
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	w := &world{net: net}
	w.botd = NewBotD(net, "botd.example")
	w.ts = NewTurnstile(net, "turnstile.example")

	// BotD-instrumented page.
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("page.example", ip)
	net.Serve("page.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(
			`<html><body><script src="https://botd.example/botd.js"></script></body></html>`)}
	})

	// Turnstile-gated site: /content requires a valid token.
	ip2 := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("gate.example", ip2)
	net.Serve("gate.example", func(req *webnet.Request) *webnet.Response {
		if req.Path == "/content" {
			token := queryParam(req.RawQuery, "tok")
			if w.ts.ValidToken(token) {
				return &webnet.Response{Status: 200, Body: []byte(
					`<html><body><input type="password" name="pw"></body></html>`)}
			}
			return &webnet.Response{Status: 403, Body: []byte("bad token")}
		}
		return &webnet.Response{Status: 200,
			Body: []byte(w.ts.GateHTML("/content", "tok"))}
	})

	// AnonWAF-protected origin.
	w.waf = NewAnonWAF("secret.example")
	ip3 := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("secret.example", ip3)
	net.Serve("secret.example", w.waf.Wrap(func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("<html><body>origin content</body></html>")}
	}))
	return w
}

func queryParam(raw, key string) string {
	for _, kv := range strings.Split(raw, "&") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) == 2 && parts[0] == key {
			return parts[1]
		}
	}
	return ""
}

func (w *world) browse(profile browser.Profile) *browser.Browser {
	w.seeds++
	ip := w.net.AllocateIP(webnet.IPMobile)
	return browser.New(w.net, profile, ip, w.seeds)
}

func TestBotDPassesNotABot(t *testing.T) {
	w := newWorld(t)
	br := w.browse(browser.NotABot())
	if _, err := br.Visit(context.Background(), "https://page.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.botd.VerdictFor(br.ClientIP)
	if v.Bot {
		t.Errorf("NotABot flagged by BotD: %v", v.Reasons)
	}
}

func TestBotDFlagsWebdriver(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.WebdriverFlag = true
	br := w.browse(p)
	if _, err := br.Visit(context.Background(), "https://page.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.botd.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "webdriver") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestBotDFlagsHeadlessUAAndCDC(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.UserAgent = strings.Replace(p.UserAgent, "Chrome/", "HeadlessChrome/", 1)
	p.CDPArtifacts = true
	br := w.browse(p)
	if _, err := br.Visit(context.Background(), "https://page.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.botd.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "headless-ua") || !containsReason(v.Reasons, "cdc-artifact") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestBotDNoJSClientIsBot(t *testing.T) {
	w := newWorld(t)
	if v := w.botd.VerdictFor("203.0.113.77"); !v.Bot {
		t.Error("client that never ran the probe must read as bot")
	}
}

func TestTurnstilePassesNotABotWithoutInteraction(t *testing.T) {
	// The finding Cloudflare paid a bounty for: a clean fingerprint gets a
	// token with zero human interaction.
	w := newWorld(t)
	br := w.browse(browser.NotABot())
	res, err := br.Visit(context.Background(), "https://gate.example/")
	if err != nil {
		t.Fatal(err)
	}
	if v := w.ts.VerdictFor(br.ClientIP); v.Bot {
		t.Fatalf("NotABot flagged by Turnstile: %v", v.Reasons)
	}
	if !strings.Contains(res.FinalURL, "/content?tok=") {
		t.Errorf("final URL = %q, want token redirect", res.FinalURL)
	}
	if !strings.Contains(res.HTML, "password") {
		t.Error("NotABot should reach the gated content")
	}
}

func TestTurnstileFlagsHeadlessGPU(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome() // stealth-style: webdriver hidden, UA clean
	p.Headless = true
	p.GPURenderer = "Google SwiftShader"
	br := w.browse(p)
	if _, err := br.Visit(context.Background(), "https://gate.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.ts.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "software-gl") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestTurnstileFlagsFakePlugins(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.PluginNames = nil // generic "Plugin A" names, the stealth-plugin tell
	br := w.browse(p)
	if _, err := br.Visit(context.Background(), "https://gate.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.ts.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "fake-plugins") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestTurnstileFlagsDriverBinary(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.ChromedriverArtifacts = true
	br := w.browse(p)
	if _, err := br.Visit(context.Background(), "https://gate.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.ts.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "driver-binary") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestTurnstileFlagsVMClock(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.VMTimingSkew = 4.0
	br := w.browse(p)
	if _, err := br.Visit(context.Background(), "https://gate.example/"); err != nil {
		t.Fatal(err)
	}
	v := w.ts.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "quantized-clock") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestTurnstileTokenSingleUse(t *testing.T) {
	w := newWorld(t)
	br := w.browse(browser.NotABot())
	res, err := br.Visit(context.Background(), "https://gate.example/")
	if err != nil {
		t.Fatal(err)
	}
	token := queryParam(strings.SplitN(res.FinalURL, "?", 2)[1], "tok")
	if token == "" {
		t.Fatal("no token in final URL")
	}
	if w.ts.ValidToken(token) {
		t.Error("token must be single-use (already redeemed by the site)")
	}
}

func TestAnonWAFPassesCleanBrowser(t *testing.T) {
	w := newWorld(t)
	br := w.browse(browser.NotABot())
	res, err := br.Visit(context.Background(), "https://secret.example/account")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.HTML, "origin content") {
		t.Errorf("clean browser blocked; HTML=%q verdict=%+v", res.HTML, w.waf.VerdictFor(br.ClientIP))
	}
	if v := w.waf.VerdictFor(br.ClientIP); v.Bot {
		t.Errorf("WAF verdict = %+v", v)
	}
}

func TestAnonWAFBlocksToolTLS(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.TLSFingerprint = "771,4865-4866,generic-library"
	br := w.browse(p)
	res, _ := br.Visit(context.Background(), "https://secret.example/account")
	if res != nil && strings.Contains(res.HTML, "origin content") {
		t.Error("tool TLS fingerprint must be blocked")
	}
	v := w.waf.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "tool-tls") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestAnonWAFBlocksMissingAcceptLanguage(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.SendAcceptLanguage = false
	br := w.browse(p)
	res, _ := br.Visit(context.Background(), "https://secret.example/")
	if res != nil && strings.Contains(res.HTML, "origin content") {
		t.Error("missing Accept-Language must be blocked")
	}
	v := w.waf.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "no-accept-language") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestAnonWAFBlocksCacheQuirk(t *testing.T) {
	w := newWorld(t)
	p := browser.HumanChrome()
	p.InterceptionCacheQuirk = true
	br := w.browse(p)
	res, _ := br.Visit(context.Background(), "https://secret.example/")
	if res != nil && strings.Contains(res.HTML, "origin content") {
		t.Error("interception cache quirk must be blocked")
	}
	v := w.waf.VerdictFor(br.ClientIP)
	if !v.Bot || !containsReason(v.Reasons, "interception-cache-quirk") {
		t.Errorf("verdict = %+v", v)
	}
}

func TestAnonWAFAllowsChromedriverArtifacts(t *testing.T) {
	// The discriminator that lets undetected_chromedriver pass AnonWAF
	// while failing Turnstile: the WAF's probe ignores driver-binary
	// leftovers.
	w := newWorld(t)
	p := browser.HumanChrome()
	p.ChromedriverArtifacts = true
	br := w.browse(p)
	res, err := br.Visit(context.Background(), "https://secret.example/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.HTML, "origin content") {
		t.Errorf("chromedriver-based headful browser should pass AnonWAF; verdict=%+v",
			w.waf.VerdictFor(br.ClientIP))
	}
}

func TestAnonWAFInterstitialBlocksNoJS(t *testing.T) {
	w := newWorld(t)
	// A no-JS client: simulate by direct webnet request (no browser).
	resp, err := w.net.Do(context.Background(), &webnet.Request{
		Method: "GET", Host: "secret.example", Path: "/",
		Headers: map[string]string{
			"User-Agent":      "curl/8.0",
			"Accept-Language": "en",
		},
		ClientIP:       "203.0.113.9",
		TLSFingerprint: "771,4865,curl",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 403 {
		t.Errorf("curl-style client got %d, want 403", resp.Status)
	}
}

func containsReason(reasons []string, want string) bool {
	for _, r := range reasons {
		if r == want {
			return true
		}
	}
	return false
}

// Each detector builds its script once, and every script response shares
// those bytes. After a browser has fetched and run all three scripts, two
// more fetches of each still return exactly Script(), from one array: no
// consumer of a response writes into the shared body.
func TestScriptBodiesBuiltOnce(t *testing.T) {
	w := newWorld(t)
	rc := NewReCaptchaV3(w.net, "recaptcha.example")
	ip := w.net.AllocateIP(webnet.IPDatacenter)
	w.net.AddDNS("all.example", ip)
	w.net.Serve("all.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(`<html><body>` +
			`<script src="https://botd.example/botd.js"></script>` +
			`<script src="https://turnstile.example/challenge.js"></script>` +
			`<script src="https://recaptcha.example/api.js"></script></body></html>`)}
	})
	ctx := context.Background()
	br := w.browse(browser.NotABot())
	if _, err := br.Visit(ctx, "https://all.example/"); err != nil {
		t.Fatal(err)
	}
	if v := w.botd.VerdictFor(br.ClientIP); v.Bot {
		t.Fatalf("the visit did not run the BotD probe: %v", v.Reasons)
	}
	if v := rc.VerdictFor(br.ClientIP); v.Bot {
		t.Fatalf("the visit did not run the reCAPTCHA probe: %v", v.Reasons)
	}
	for _, tc := range []struct {
		host, path, script string
	}{
		{"botd.example", "/botd.js", w.botd.Script()},
		{"turnstile.example", "/challenge.js", w.ts.Script()},
		{"recaptcha.example", "/api.js", rc.Script()},
	} {
		var bodies [2][]byte
		for i := range bodies {
			resp, err := w.net.Do(ctx, &webnet.Request{Method: "GET", Host: tc.host, Path: tc.path, ClientIP: br.ClientIP})
			if err != nil {
				t.Fatalf("%s%s: %v", tc.host, tc.path, err)
			}
			if string(resp.Body) != tc.script {
				t.Errorf("%s%s fetch %d differs from Script()", tc.host, tc.path, i+1)
			}
			bodies[i] = resp.Body
		}
		if &bodies[0][0] != &bodies[1][0] {
			t.Errorf("%s%s: each response copies the script", tc.host, tc.path)
		}
	}
}
