package phishkit

import (
	"context"

	"strings"
	"testing"
	"time"

	"crawlerbox/internal/botdetect"
	"crawlerbox/internal/browser"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/webnet"
)

var _epoch = time.Date(2024, 3, 1, 9, 0, 0, 0, time.UTC)

func newNet() *webnet.Internet {
	return webnet.NewInternet(webnet.NewClock(_epoch))
}

func newBrowser(net *webnet.Internet, seed int64) *browser.Browser {
	return browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), seed)
}

func TestLoginPageTemplateStructure(t *testing.T) {
	html := LoginPageHTML(BrandAcmeTravelTech, LoginPageOptions{
		PostURL: "/session", LogoURL: "https://x/logo.png", VictimEmail: "v@corp.example",
	})
	doc := htmlx.Parse(html)
	if !htmlx.HasPasswordInput(doc) {
		t.Error("template must contain a password input")
	}
	if len(htmlx.Find(doc, "form")) != 1 {
		t.Error("template must contain one form")
	}
	if !strings.Contains(html, "v@corp.example") {
		t.Error("victim email not pre-filled")
	}
	if !strings.Contains(html, BrandAcmeTravelTech.Accent) {
		t.Error("brand accent missing")
	}
}

func TestBrandSiteAndCloneLookAlike(t *testing.T) {
	// The cornerstone of the spear-phishing classifier: the kit clone's
	// screenshot fuzzy-matches the legitimate login page.
	net := newNet()
	legitURL := DeployBrandSite(net, BrandAcmeTravelTech)
	site := Deploy(net, SiteConfig{
		Host:  "acrne-travel.buzz",
		Brand: BrandAcmeTravelTech,
	})

	br1 := newBrowser(net, 1)
	legit, err := br1.Visit(context.Background(), legitURL)
	if err != nil {
		t.Fatal(err)
	}
	br2 := newBrowser(net, 2)
	phish, err := br2.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	m := imaging.DefaultMatcher()
	ok, dp, dd := m.Match(imaging.Sign(legit.RenderScreenshot()), imaging.Sign(phish.RenderScreenshot()))
	if !ok {
		t.Errorf("clone should fuzzy-match the brand page: pHash=%d dHash=%d", dp, dd)
	}
	// And a different brand's page must NOT match.
	otherURL := DeployBrandSite(net, BrandPayRoute)
	br3 := newBrowser(net, 3)
	other, err := br3.Visit(context.Background(), otherURL)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := m.Match(imaging.Sign(legit.RenderScreenshot()), imaging.Sign(other.RenderScreenshot())); ok {
		t.Error("different brands must not fuzzy-match")
	}
}

func TestCredentialHarvesting(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{Host: "harvest.buzz", Brand: BrandMicrosoft})
	// Post credentials the way the form would.
	_, err := net.Do(context.Background(), &webnet.Request{
		Method: "POST", Host: "harvest.buzz", Path: "/session",
		Body:     "email=victim%40corp.example&password=hunter2",
		ClientIP: "10.5.5.5",
		Headers:  map[string]string{"User-Agent": "UA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(site.Harvested) != 1 {
		t.Fatalf("harvested = %d", len(site.Harvested))
	}
	if site.Harvested[0].Password != "hunter2" {
		t.Errorf("creds = %+v", site.Harvested[0])
	}
}

func TestTokenizedSpearPhish(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{
		Host:   "spear.buzz",
		Brand:  BrandAcmeTravelTech,
		Tokens: []string{"jdoe", "asmith"},
	})
	br := newBrowser(net, 1)
	res, err := br.Visit(context.Background(), site.LandingURL) // carries ?t=jdoe
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Fatal("valid token must reveal the page")
	}
	if !strings.Contains(res.HTML, "jdoe@corp.example") {
		t.Error("victim email not personalized from token")
	}
	br2 := newBrowser(net, 2)
	res2, err := br2.Visit(context.Background(), "https://spear.buzz/login")
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("tokenless scan must see the benign page")
	}
}

func TestTurnstileGatedSite(t *testing.T) {
	net := newNet()
	ts := botdetect.NewTurnstile(net, "turnstile.example")
	site := Deploy(net, SiteConfig{
		Host:      "gated.buzz",
		Brand:     BrandOneDrive,
		Turnstile: ts,
	})
	// A clean browser passes the challenge and reaches the form.
	br := newBrowser(net, 1)
	res, err := br.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Errorf("clean browser should clear Turnstile; final=%q console=%v",
			res.FinalURL, res.Console)
	}
	// A headless bot is stuck at the challenge.
	p := browser.HumanChrome()
	p.Headless = true
	p.GPURenderer = "Google SwiftShader"
	bot := browser.New(net, p, net.AllocateIP(webnet.IPMobile), 2)
	res2, err := bot.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("headless bot must not reach the gated form")
	}
}

func TestTurnstilePlusTokenGate(t *testing.T) {
	net := newNet()
	ts := botdetect.NewTurnstile(net, "turnstile.example")
	site := Deploy(net, SiteConfig{
		Host:      "combo.buzz",
		Brand:     BrandOffice365,
		Turnstile: ts,
		Tokens:    []string{"tkA"},
	})
	br := newBrowser(net, 1)
	res, err := br.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Errorf("token+turnstile chain should clear: final=%q nav=%v",
			res.FinalURL, res.Navigations)
	}
}

func TestReCaptchaBackground(t *testing.T) {
	net := newNet()
	ts := botdetect.NewTurnstile(net, "turnstile.example")
	rc := botdetect.NewReCaptchaV3(net, "recaptcha.example")
	site := Deploy(net, SiteConfig{
		Host:      "double.buzz",
		Brand:     BrandMicrosoft,
		Turnstile: ts,
		ReCaptcha: rc,
	})
	br := newBrowser(net, 1)
	res, err := br.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Fatal("clean browser should reach the form")
	}
	// The background scorer must have seen the client without any visible
	// second challenge.
	v := rc.VerdictFor(br.ClientIP)
	if v.Bot {
		t.Errorf("background reCAPTCHA flagged a clean browser: %v", v.Reasons)
	}
}

func TestHotLoadedBrandAssetsLeaveReferralTrail(t *testing.T) {
	net := newNet()
	DeployBrandSite(net, BrandAcmeTravelTech)
	site := Deploy(net, SiteConfig{
		Host:               "hotload.buzz",
		Brand:              BrandAcmeTravelTech,
		HotLoadBrandAssets: true,
	})
	br := newBrowser(net, 1)
	if _, err := br.Visit(context.Background(), site.LandingURL); err != nil {
		t.Fatal(err)
	}
	// The brand's own traffic logs now show a request for its logo with a
	// foreign referer — the early-warning signal of Section V-A.
	var flagged bool
	net.EachTrafficTo(BrandAcmeTravelTech.Domain, func(e *webnet.LoggedExchange) bool {
		flagged = strings.Contains(e.Request.Path, "logo") &&
			strings.Contains(e.Request.Header("Referer"), "hotload.buzz")
		return !flagged
	})
	if !flagged {
		t.Error("brand asset referral trail missing")
	}
}

func TestVictimCheckIntegration(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{
		Host:          "tracked.buzz",
		Brand:         BrandAcmeTravelTech,
		VictimCheckC2: "tracked.buzz",
	})
	site.AddVictim("target@corp.example")
	br := newBrowser(net, 1)
	// base64("target@corp.example") = dGFyZ2V0QGNvcnAuZXhhbXBsZQ==
	res, err := br.Visit(context.Background(), site.LandingURL+"#dGFyZ2V0QGNvcnAuZXhhbXBsZQ==")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res.DOM) {
		t.Errorf("listed victim must see the page; errors=%v", res.ScriptErrors)
	}
	br2 := newBrowser(net, 2)
	res2, err := br2.Visit(context.Background(), site.LandingURL) // no fragment
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res2.DOM) {
		t.Error("unlisted visitor must stay cloaked")
	}
}

func TestMobileOnlyQRSite(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{
		Host:       "qrlure.buzz",
		Brand:      BrandMicrosoft,
		MobileOnly: true,
	})
	desktop := newBrowser(net, 1)
	res, err := desktop.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res.DOM) {
		t.Error("desktop browser must see the benign page")
	}
	mobile := browser.HumanChrome()
	mobile.UserAgent = "Mozilla/5.0 (iPhone; CPU iPhone OS 17_0) Safari/604.1"
	mbr := browser.New(net, mobile, net.AllocateIP(webnet.IPMobile), 2)
	res2, err := mbr.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res2.DOM) {
		t.Error("mobile browser must see the phish")
	}
}

func TestOTPGatedSite(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{
		Host:    "otp.buzz",
		Brand:   BrandDocuSign,
		OTPCode: "445566",
	})
	br := newBrowser(net, 1)
	res, err := br.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res.DOM) {
		t.Error("crawler without the OTP must be stuck at the prompt")
	}
	// A victim who types the code (simulated by following the gated URL).
	br2 := newBrowser(net, 2)
	res2, err := br2.Visit(context.Background(), site.LandingURL+"?otp=445566")
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res2.DOM) {
		t.Error("correct OTP must reveal the page")
	}
}

func TestHueRotateSiteStillMatchesFuzzyHashes(t *testing.T) {
	net := newNet()
	legitURL := DeployBrandSite(net, BrandSkyBooker)
	site := Deploy(net, SiteConfig{
		Host:         "rotated.buzz",
		Brand:        BrandSkyBooker,
		HueRotateDeg: 4,
	})
	br1 := newBrowser(net, 1)
	legit, err := br1.Visit(context.Background(), legitURL)
	if err != nil {
		t.Fatal(err)
	}
	br2 := newBrowser(net, 2)
	phish, err := br2.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	m := imaging.DefaultMatcher()
	if ok, dp, dd := m.Match(imaging.Sign(legit.RenderScreenshot()), imaging.Sign(phish.RenderScreenshot())); !ok {
		t.Errorf("hue-rotate must not defeat the classifier: pHash=%d dHash=%d", dp, dd)
	}
}

func TestDelayedActivationSite(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{
		Host:       "nightsend.buzz",
		Brand:      BrandMicrosoft,
		ActivateAt: _epoch.Add(8 * time.Hour),
	})
	br := newBrowser(net, 1)
	res, err := br.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res.DOM) {
		t.Error("pre-activation scan must see the benign page")
	}
	net.Clock.Advance(9 * time.Hour)
	br2 := newBrowser(net, 2)
	res2, err := br2.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res2.DOM) {
		t.Error("post-activation visit must see the phish")
	}
}

func TestHTMLAttachmentVariants(t *testing.T) {
	net := newNet()
	// Media host for external resources.
	mIP := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS("gyazo.example", mIP)
	net.Serve("gyazo.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("img")}
	})
	site := Deploy(net, SiteConfig{Host: "attach-target.buzz", Brand: BrandExcel})

	br := newBrowser(net, 1)
	local := HTMLAttachment(site.LandingURL, "gyazo.example", false)
	res, err := br.LoadHTML(context.Background(), local, "invoice.html")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.FinalURL, "file:///") {
		t.Errorf("local variant must keep the window URL, got %q", res.FinalURL)
	}
	var hitTarget, hitMedia bool
	for _, r := range res.Requests {
		if strings.Contains(r.URL, "attach-target.buzz") {
			hitTarget = true
		}
		if strings.Contains(r.URL, "gyazo.example") {
			hitMedia = true
		}
	}
	if !hitTarget || !hitMedia {
		t.Errorf("attachment requests = %+v", res.Requests)
	}

	br2 := newBrowser(net, 2)
	redirecting := HTMLAttachment(site.LandingURL, "gyazo.example", true)
	res2, err := br2.LoadHTML(context.Background(), redirecting, "doc.html")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.FinalURL, "attach-target.buzz") {
		t.Errorf("redirect variant final = %q", res2.FinalURL)
	}
}

func TestScannerIPBlockedSite(t *testing.T) {
	net := newNet()
	site := Deploy(net, SiteConfig{
		Host:            "ipblock.buzz",
		Brand:           BrandMicrosoft,
		BlockScannerIPs: true,
	})
	scanner := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPSecurityVendor), 1)
	res, err := scanner.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if htmlx.HasPasswordInput(res.DOM) {
		t.Error("security-vendor IP must be cloaked")
	}
	victim := newBrowser(net, 2) // mobile IP
	res2, err := victim.Visit(context.Background(), site.LandingURL)
	if err != nil {
		t.Fatal(err)
	}
	if !htmlx.HasPasswordInput(res2.DOM) {
		t.Error("mobile IP must see the phish")
	}
}
