package crawlerboxgo

import (
	"context"
	"testing"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/crawler"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/mime"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/report"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

var _start = time.Date(2024, 2, 1, 9, 0, 0, 0, time.UTC)

func TestWorldConstruction(t *testing.T) {
	w := NewWorld(_start)
	if len(w.BrandLoginURLs) != 5 {
		t.Errorf("brand URLs = %d, want 5 protected companies", len(w.BrandLoginURLs))
	}
	if w.Turnstile == nil || w.ReCaptcha == nil || w.BotD == nil {
		t.Error("detector services missing")
	}
	if !w.Net.Clock.Now().Equal(_start) {
		t.Error("clock not at start time")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	w := NewWorld(_start)
	pipe, err := w.NewPipeline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	site := phishkit.Deploy(w.Net, phishkit.SiteConfig{
		Host:      "payroute-billing.com",
		Brand:     phishkit.BrandPayRoute,
		Turnstile: w.Turnstile,
	})
	w.Registry.Register(whois.Record{
		Domain: "payroute-billing.com", Registrar: "NameCheap-Intl",
		Registered: _start.Add(-40 * 24 * time.Hour), Provenance: whois.ProvenanceFresh,
	})
	raw := mime.NewBuilder("billing@phish.ru", "user@corp.example", "Invoice hold", _start).
		Text("Your payment is on hold: " + site.LandingURL).Build()
	ma, err := pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != crawlerbox.OutcomeActivePhish {
		t.Fatalf("outcome = %v", ma.Outcome)
	}
	if !ma.SpearPhish || ma.Brand != phishkit.BrandPayRoute.Name {
		t.Errorf("spear=%v brand=%q", ma.SpearPhish, ma.Brand)
	}
	if !ma.Cloaks.Turnstile {
		t.Error("Turnstile missing from census")
	}
}

func TestGenerateAndAnalyzeCorpusTiny(t *testing.T) {
	c, err := dataset.Stream(dataset.Config{Seed: 3, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	run, err := report.Analyze(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if run.Errors != 0 {
		t.Errorf("analysis errors = %d", run.Errors)
	}
	rows := run.Disposition()
	var total int
	for _, r := range rows {
		total += r.Count
	}
	if total != c.Len() {
		t.Errorf("disposition total = %d, messages = %d", total, c.Len())
	}
}

// TestModularCrawlerComponent verifies the pipeline's crawler component is
// swappable — the modularity the paper emphasizes (integrating Nodriver or
// Selenium-Driverless as alternative components is its stated future work).
func TestModularCrawlerComponent(t *testing.T) {
	w := NewWorld(_start)
	pipe, err := w.NewPipeline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Swap NotABot for a Nodriver-profile component.
	pipe.NewBrowser = func(seed int64) *browser.Browser {
		return crawler.NewHeadless(crawler.Nodriver, w.Net, webnet.IPMobile, seed, false).Browser
	}
	site := phishkit.Deploy(w.Net, phishkit.SiteConfig{
		Host:      "skybooker-login.dev",
		Brand:     phishkit.BrandSkyBooker,
		Turnstile: w.Turnstile,
	})
	raw := mime.NewBuilder("x@phish.ru", "user@corp.example", "Session expired", _start).
		Text("Re-authenticate: " + site.LandingURL).Build()
	ma, err := pipe.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Outcome != crawlerbox.OutcomeActivePhish {
		t.Errorf("Nodriver component should also defeat the gate; outcome = %v", ma.Outcome)
	}

	// A weak component (Puppeteer+stealth, headless) on the same site gets
	// stuck at the challenge — the ablation the Table I matrix motivates.
	pipe2, err := w.NewPipeline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pipe2.NewBrowser = func(seed int64) *browser.Browser {
		return crawler.NewHeadless(crawler.PuppeteerStealth, w.Net, webnet.IPMobile, seed, true).Browser
	}
	ma2, err := pipe2.AnalyzeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ma2.Outcome == crawlerbox.OutcomeActivePhish {
		t.Error("headless stealth component should be blocked by Turnstile")
	}
}
