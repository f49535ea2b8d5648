// Package crawlerboxgo is the public facade of the CrawlerBox
// reproduction — a from-scratch Go implementation of the analysis
// infrastructure and experiments from "A Closer Look At Modern Evasive
// Phishing Emails" (DSN 2025).
//
// The facade wires the two things a downstream user needs:
//
//   - World: a simulated internet (virtual clock, DNS with a passive-DNS
//     ledger, TLS/CT log, HTTP), a WHOIS registry, the bot-detection
//     services (Turnstile-style challenge, reCAPTCHA-style scorer, BotD),
//     and the five protected brands' legitimate login sites.
//   - Pipeline: the CrawlerBox analysis pipeline — recursive MIME parsing
//     with QR/OCR/PDF/ZIP extraction, evasive crawling with the NotABot
//     browser profile, screenshot classification by perceptual hashing,
//     cloaking census, and WHOIS/certificate/passive-DNS enrichment.
//
// Deeper control lives in the internal packages: the synthetic corpus in
// dataset, the corpus run and its tables and figures in report, and the
// Table I crawler assessment in crawler.
package crawlerboxgo

import (
	"context"
	"time"

	"crawlerbox/internal/botdetect"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

// World bundles a simulated internet with the services and brand sites the
// pipeline expects.
type World struct {
	Net       *webnet.Internet
	Registry  *whois.Registry
	Turnstile *botdetect.Turnstile
	ReCaptcha *botdetect.ReCaptchaV3
	BotD      *botdetect.BotD
	// BrandLoginURLs maps each protected brand name to its legitimate
	// login URL.
	BrandLoginURLs map[string]string
}

// NewWorld builds a fresh simulated world starting at the given time.
func NewWorld(start time.Time) *World {
	net := webnet.NewInternet(webnet.NewClock(start))
	w := &World{
		Net:            net,
		Registry:       whois.NewRegistry(),
		Turnstile:      botdetect.NewTurnstile(net, "turnstile.example"),
		ReCaptcha:      botdetect.NewReCaptchaV3(net, "recaptcha.example"),
		BotD:           botdetect.NewBotD(net, "botd.example"),
		BrandLoginURLs: map[string]string{},
	}
	for _, b := range phishkit.StudyBrands {
		w.BrandLoginURLs[b.Name] = phishkit.DeployBrandSite(net, b)
	}
	return w
}

// NewPipeline returns a CrawlerBox pipeline for the world, with references
// to every protected brand's login page already registered. The context
// bounds the reference crawls.
func (w *World) NewPipeline(ctx context.Context) (*crawlerbox.Pipeline, error) {
	pipe := crawlerbox.New(w.Net, w.Registry)
	if err := pipe.AddReferences(ctx, w.BrandLoginURLs); err != nil {
		return nil, err
	}
	return pipe, nil
}
