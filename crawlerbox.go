// Package crawlerboxgo is the public facade of the CrawlerBox
// reproduction — a from-scratch Go implementation of the analysis
// infrastructure and experiments from "A Closer Look At Modern Evasive
// Phishing Emails" (DSN 2025).
//
// The facade wires the three things a downstream user needs:
//
//   - World: a simulated internet (virtual clock, DNS with a passive-DNS
//     ledger, TLS/CT log, HTTP), a WHOIS registry, the bot-detection
//     services (Turnstile-style challenge, reCAPTCHA-style scorer, BotD),
//     and the five protected brands' legitimate login sites.
//   - Pipeline: the CrawlerBox analysis pipeline — recursive MIME parsing
//     with QR/OCR/PDF/ZIP extraction, evasive crawling with the NotABot
//     browser profile, screenshot classification by perceptual hashing,
//     cloaking census, and WHOIS/certificate/passive-DNS enrichment.
//   - The Table I crawler assessment harness.
//
// Deeper control lives in the internal packages; this package exposes the
// workflows the paper's evaluation runs end to end.
package crawlerboxgo

import (
	"context"
	"time"

	"crawlerbox/internal/botdetect"
	"crawlerbox/internal/browser"
	"crawlerbox/internal/crawler"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
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

// NotABotBrowser returns a fresh NotABot crawler on a mobile egress IP.
func (w *World) NotABotBrowser(seed int64) *browser.Browser {
	return browser.New(w.Net, browser.NotABot(), w.Net.AllocateIP(webnet.IPMobile), seed)
}

// GenerateCorpus builds the calibrated synthetic ten-month corpus
// (scale 1.0 reproduces the paper's 5,181 messages).
func GenerateCorpus(seed int64, scale float64) (*dataset.Corpus, error) {
	return dataset.Generate(dataset.Config{Seed: seed, Scale: scale})
}

// RunTable1 reproduces the Table I crawler-vs-detector assessment.
func RunTable1(ctx context.Context) (*crawler.Assessment, error) {
	return crawler.RunAssessment(ctx)
}
