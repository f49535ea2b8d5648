package crawlerbox

import (
	"archive/zip"
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"crawlerbox/internal/botdetect"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/pdfx"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/qrcode"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

var _epoch = time.Date(2024, 4, 10, 9, 0, 0, 0, time.UTC)

// testEnv wires a network, registry, deployed brands, and a pipeline with
// references to the five protected login pages.
type testEnv struct {
	net      *webnet.Internet
	registry *whois.Registry
	pipe     *Pipeline
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	net := webnet.NewInternet(webnet.NewClock(_epoch))
	registry := whois.NewRegistry()
	pipe := New(net, registry)
	for _, b := range phishkit.StudyBrands {
		url := phishkit.DeployBrandSite(net, b)
		if err := pipe.AddReference(context.Background(), b.Name, url); err != nil {
			t.Fatalf("AddReference(%s): %v", b.Name, err)
		}
	}
	return &testEnv{net: net, registry: registry, pipe: pipe}
}

func buildMsg(t *testing.T, text string) []byte {
	t.Helper()
	return mime.NewBuilder("attacker@phish.ru", "victim@corp.example",
		"Action required", _epoch).Text(text).Build()
}

func TestNoResourceMessage(t *testing.T) {
	env := newEnv(t)
	raw := buildMsg(t, "Hello, your invoice is overdue. Reply urgently to arrange payment.")
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeNoResource {
		t.Errorf("outcome = %v, want no-web-resource", ma.Outcome)
	}
}

func TestErrorPageMessage(t *testing.T) {
	env := newEnv(t)
	raw := buildMsg(t, "Click https://taken-down.example/login now")
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeError {
		t.Errorf("outcome = %v, want error-page", ma.Outcome)
	}
}

func TestActiveSpearPhishMessage(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "acmetraveltech-sso.buzz",
		Brand: phishkit.BrandAcmeTravelTech,
	})
	env.registry.Register(whois.Record{
		Domain: "acmetraveltech-sso.buzz", Registrar: "REGRU-RU",
		Registered: _epoch.Add(-30 * 24 * time.Hour), Provenance: whois.ProvenanceFresh,
	})
	env.net.IssueCert("acmetraveltech-sso.buzz", "LetsEncrypt", _epoch.Add(-8*24*time.Hour))

	raw := buildMsg(t, "Your password expires today. Renew: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v, want active-phishing", ma.Outcome)
	}
	if !ma.SpearPhish || ma.Brand != phishkit.BrandAcmeTravelTech.Name {
		t.Errorf("spear=%v brand=%q", ma.SpearPhish, ma.Brand)
	}
	if ma.Landing == nil {
		t.Fatal("landing enrichment missing")
	}
	if ma.Landing.TLD != ".buzz" {
		t.Errorf("TLD = %q", ma.Landing.TLD)
	}
	if ma.Landing.Whois == nil || ma.Landing.Whois.Registrar != "REGRU-RU" {
		t.Errorf("whois join = %+v", ma.Landing.Whois)
	}
	if ma.Landing.Cert == nil {
		t.Error("certificate join missing")
	}
}

func TestNonTargetedPhishNotSpear(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "office-secure.click",
		Brand: phishkit.BrandMicrosoft,
	})
	raw := buildMsg(t, "New voicemail: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v", ma.Outcome)
	}
	if ma.SpearPhish {
		t.Error("Microsoft lookalike must not match the five protected brands")
	}
}

func TestQRCodeEmailEndToEnd(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "skybooker-verify.dev",
		Brand: phishkit.BrandSkyBooker,
	})
	m, err := qrcode.Encode(site.LandingURL, qrcode.ECMedium)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qrcode.Render(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw := mime.NewBuilder("it@phish.ru", "victim@corp.example", "MFA update", _epoch).
		Text("Scan the attached code to re-enroll in MFA.").
		Inline("image/x-cbi", "qr.cbi", imaging.EncodeCBI(img)).
		Build()
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Parse.QRCount != 1 {
		t.Errorf("QRCount = %d", ma.Parse.QRCount)
	}
	if ma.Parse.FaultyQR {
		t.Error("clean QR flagged faulty")
	}
	if ma.Outcome != OutcomeActivePhish || !ma.SpearPhish {
		t.Errorf("outcome=%v spear=%v", ma.Outcome, ma.SpearPhish)
	}
}

func TestFaultyQRDetected(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "payroute-login.com",
		Brand: phishkit.BrandPayRoute,
	})
	m, err := qrcode.Encode("xxx "+site.LandingURL, qrcode.ECMedium)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qrcode.Render(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw := mime.NewBuilder("billing@phish.ru", "victim@corp.example", "Invoice", _epoch).
		Text("Scan to view your invoice.").
		Inline("image/x-cbi", "qr.cbi", imaging.EncodeCBI(img)).
		Build()
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.Parse.FaultyQR {
		t.Error("faulty QR payload not flagged")
	}
	if len(ma.Parse.URLs) == 0 || !ma.Parse.URLs[0].LenientOnly {
		t.Errorf("URLs = %+v, want lenient-only extraction", ma.Parse.URLs)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Errorf("outcome = %v", ma.Outcome)
	}
}

func TestPDFAttachmentWithLink(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "transitgo-pass.tech",
		Brand: phishkit.BrandTransitGo,
	})
	pdf := pdfx.Build(&pdfx.Document{Pages: []pdfx.Page{{
		TextLines: []string{"Your transit pass needs renewal."},
		LinkURIs:  []string{site.LandingURL},
	}}}, true)
	raw := mime.NewBuilder("hr@phish.ru", "victim@corp.example", "Pass renewal", _epoch).
		Text("See the attached document.").
		Attach("application/pdf", "pass.pdf", pdf).
		Build()
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	var viaPDF bool
	for _, u := range ma.Parse.URLs {
		if u.Source == SourcePDFLink {
			viaPDF = true
		}
	}
	if !viaPDF {
		t.Errorf("URLs = %+v, want pdf-link source", ma.Parse.URLs)
	}
	if ma.Outcome != OutcomeActivePhish || !ma.SpearPhish {
		t.Errorf("outcome=%v spear=%v", ma.Outcome, ma.SpearPhish)
	}
}

func TestZIPWithHTADownload(t *testing.T) {
	env := newEnv(t)
	zipBytes := buildZip(t, map[string]string{
		"payload.hta": `<script language="JScript">var u = "https://dropper.evil/stage2.js";</script>`,
	})
	raw := mime.NewBuilder("a@phish.ru", "victim@corp.example", "Parcel info", _epoch).
		Text("Open the attached file.").
		Attach("application/zip", "parcel.zip", zipBytes).
		Build()
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeDownload {
		t.Errorf("outcome = %v, want file-download", ma.Outcome)
	}
	if len(ma.Parse.HTAURLs) != 1 || !strings.Contains(ma.Parse.HTAURLs[0], "dropper.evil") {
		t.Errorf("HTA URLs = %v", ma.Parse.HTAURLs)
	}
	if len(ma.Visits) != 0 {
		t.Error("HTA content must never be executed or crawled")
	}
}

func TestHTMLAttachmentLocalRedirect(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "farewell-docs.xyz",
		Brand: phishkit.BrandFareWell,
	})
	mediaIP := env.net.AllocateIP(webnet.IPDatacenter)
	env.net.AddDNS("freeimages.example", mediaIP)
	env.net.Serve("freeimages.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte("img")}
	})
	attachment := phishkit.HTMLAttachment(site.LandingURL, "freeimages.example", false)
	raw := mime.NewBuilder("docs@phish.ru", "victim@corp.example", "Contract", _epoch).
		Text("Open the attached contract.").
		Attach("text/html", "contract.html", []byte(attachment)).
		Build()
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma.Parse.HTMLAttachments) != 1 {
		t.Fatalf("HTML attachments = %d", len(ma.Parse.HTMLAttachments))
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Errorf("outcome = %v, want active-phishing via iframe", ma.Outcome)
	}
}

func TestTurnstileGatedPhishCensus(t *testing.T) {
	env := newEnv(t)
	ts := botdetect.NewTurnstile(env.net, "turnstile.example")
	rc := botdetect.NewReCaptchaV3(env.net, "recaptcha.example")
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:      "acme-sso-secure.com",
		Brand:     phishkit.BrandAcmeTravelTech,
		Turnstile: ts,
		ReCaptcha: rc,
	})
	raw := buildMsg(t, "Expiring session: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v (NotABot must defeat Turnstile)", ma.Outcome)
	}
	if !ma.Cloaks.Turnstile {
		t.Error("Turnstile not in census")
	}
	if !ma.Cloaks.ReCaptcha {
		t.Error("reCAPTCHA not in census")
	}
}

func TestCloakCensusRichSite(t *testing.T) {
	env := newEnv(t)
	// httpbin/ipapi-style services for the exfil layer.
	for _, h := range []string{"httpbin.example", "ipapi.example"} {
		host := h
		ip := env.net.AllocateIP(webnet.IPDatacenter)
		env.net.AddDNS(host, ip)
		env.net.Serve(host, func(req *webnet.Request) *webnet.Response {
			if host == "httpbin.example" {
				return &webnet.Response{Status: 200, Body: []byte(req.ClientIP)}
			}
			return &webnet.Response{Status: 200, Body: []byte(`{"country":"FR"}`)}
		})
	}
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:          "fully-loaded.com",
		Brand:         phishkit.BrandSkyBooker,
		ConsoleHijack: true,
		DebuggerTimer: true,
		HueRotateDeg:  4,
		ExfilHTTPBin:  "httpbin.example",
		ExfilIPAPI:    "ipapi.example",
	})
	raw := buildMsg(t, "Account notice: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v", ma.Outcome)
	}
	c := ma.Cloaks
	if !c.ConsoleHijack || !c.DebuggerTimer || !c.HueRotate || !c.ExfilHTTPBin || !c.ExfilIPAPI {
		t.Errorf("census = %+v", c)
	}
	// Hue-rotate must not have broken spear classification.
	if !ma.SpearPhish {
		t.Error("hue-rotated clone must still classify as spear phish")
	}
}

func TestVictimCheckAndTokenCensus(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:          "tracked-portal.com",
		Brand:         phishkit.BrandPayRoute,
		VictimCheckC2: "tracked-portal.com",
	})
	site.AddVictim("victim@corp.example")
	// base64("victim@corp.example")
	url := site.LandingURL + "#dmljdGltQGNvcnAuZXhhbXBsZQ=="
	raw := buildMsg(t, "Payment hold: "+url)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v", ma.Outcome)
	}
	if !ma.Cloaks.VictimCheck {
		t.Error("victim-check script not in census")
	}
	if !ma.Cloaks.TokenizedURL {
		t.Error("token-strip probe should flag tokenized cloaking")
	}
}

func TestOTPGateSolvedFromMessage(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:    "otp-gate.com",
		Brand:   phishkit.BrandAcmeTravelTech,
		OTPCode: "224466",
	})
	raw := buildMsg(t, "Portal: "+site.LandingURL+"\nYour access code 224466 expires in 10 minutes.")
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.Cloaks.OTPPrompt {
		t.Error("OTP prompt not in census")
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Errorf("outcome = %v (pipeline should submit the recovered code)", ma.Outcome)
	}
}

func TestMathChallengeSolved(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:          "math-gate.com",
		Brand:         phishkit.BrandFareWell,
		MathChallenge: true,
	})
	raw := buildMsg(t, "Document: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.Cloaks.MathChallenge {
		t.Error("math challenge not in census")
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Errorf("outcome = %v (pipeline should solve the equation)", ma.Outcome)
	}
}

func TestHotLoadedAssetsReferral(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:               "acme-hotload.com",
		Brand:              phishkit.BrandAcmeTravelTech,
		HotLoadBrandAssets: true,
	})
	raw := buildMsg(t, "Update: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Fatalf("outcome = %v", ma.Outcome)
	}
	var sawHotLoad bool
	for _, v := range ma.Visits {
		if v.Result == nil {
			continue
		}
		for _, r := range v.Result.Requests {
			if strings.Contains(r.URL, phishkit.BrandAcmeTravelTech.Domain) {
				sawHotLoad = true
			}
		}
	}
	if !sawHotLoad {
		t.Error("hot-loaded brand asset request not recorded")
	}
}

func TestNoisePaddingDetected(t *testing.T) {
	env := newEnv(t)
	body := "Click https://gone.example/x now" + strings.Repeat("\n", 60) +
		"qwe rty asd fgh jkl zxc vbn mnb"
	raw := buildMsg(t, body)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ma.Parse.NoisePadded {
		t.Error("noise padding not detected")
	}
}

func TestInteractionRequiredOutcome(t *testing.T) {
	env := newEnv(t)
	ip := env.net.AllocateIP(webnet.IPDatacenter)
	env.net.AddDNS("drive-share.example", ip)
	env.net.Serve("drive-share.example", func(*webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: []byte(
			`<html><body><p>A colleague shared a document with you.</p>
			<button>Open in viewer</button></body></html>`)}
	})
	raw := buildMsg(t, "Shared: https://drive-share.example/d/abc")
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeInteraction {
		t.Errorf("outcome = %v, want interaction-required", ma.Outcome)
	}
}

func TestDNSVolumeEnrichment(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "lowvolume-target.com",
		Brand: phishkit.BrandTransitGo,
	})
	env.net.RecordBackgroundQueries("lowvolume-target.com", 43, 30*24*time.Hour, env.net.Clock.Now())
	raw := buildMsg(t, "Notice: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Landing == nil {
		t.Fatal("no landing info")
	}
	if ma.Landing.DNS30DayTotal < 43 {
		t.Errorf("DNS total = %d, want >= 43", ma.Landing.DNS30DayTotal)
	}
}

func buildZip(t *testing.T, files map[string]string) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := zip.NewWriter(&b)
	for name, content := range files {
		w, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestPipelineResilientToCorruptAttachments(t *testing.T) {
	// Failure injection: corrupt CBI image, truncated PDF, and garbage ZIP
	// must degrade gracefully — the message still gets a disposition.
	env := newEnv(t)
	raw := mime.NewBuilder("a@phish.ru", "v@corp.example", "broken parts", _epoch).
		Text("see attachments https://gone.example/x").
		Inline("image/x-cbi", "bad.cbi", []byte("CBIM\x00\x00\x00\x10")).    // truncated CBI
		Attach("application/pdf", "bad.pdf", []byte("%PDF-1.4\ngarbage")).   // no objects
		Attach("application/zip", "bad.zip", []byte("PK\x03\x04not-a-zip")). // corrupt archive
		Build()
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatalf("corrupt attachments must not fail the analysis: %v", err)
	}
	if ma.Outcome != OutcomeError {
		t.Errorf("outcome = %v (the one text URL is NXDOMAIN)", ma.Outcome)
	}
}

func TestPipelineNestedEMLReported(t *testing.T) {
	// The common reporting flow: the suspicious message arrives as a
	// message/rfc822 attachment of the report email; URLs inside the inner
	// message must still be found and crawled.
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "nested-target.com",
		Brand: phishkit.BrandTransitGo,
	})
	inner := mime.NewBuilder("evil@phish.ru", "victim@corp.example", "inner lure", _epoch).
		Text("verify here: " + site.LandingURL).Build()
	outer := mime.NewBuilder("victim@corp.example", "soc@corp.example", "FW: suspicious", _epoch).
		Text("This looks like phishing, please review.").
		AttachEML("reported.eml", inner).Build()
	ma, err := env.pipe.AnalyzeMessage(outer)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != OutcomeActivePhish {
		t.Errorf("outcome = %v, want active-phishing from the nested EML", ma.Outcome)
	}
}

func TestBannerEnrichment(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "banner-host.com",
		Brand: phishkit.BrandSkyBooker,
	})
	ip, ok := env.net.LookupDNS("banner-host.com")
	if !ok {
		t.Fatal("banner-host.com does not resolve")
	}
	env.net.SetBanner(ip, "nginx/1.24.0")
	raw := buildMsg(t, "Notice: "+site.LandingURL)
	ma, err := env.pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Landing == nil || ma.Landing.Banner != "nginx/1.24.0" {
		t.Errorf("banner enrichment missing: %+v", ma.Landing)
	}
}
