// spearphish demonstrates the screenshot-triage classifier: the pipeline
// signs the five protected brands' legitimate login pages with perceptual
// hashes (pHash + dHash), then classifies crawled pages against them — a
// faithful clone matches, the hue-rotate(4deg) evasion fails to break the
// match, and an unrelated brand does not match.
package main

import (
	"context"

	"fmt"
	"os"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/webnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spearphish:", err)
		os.Exit(1)
	}
}

func run() error {
	net := webnet.NewInternet(webnet.NewClock(time.Date(2024, 6, 1, 9, 0, 0, 0, time.UTC)))

	// Sign the legitimate login pages.
	matcher := imaging.DefaultMatcher()
	refs := map[string]imaging.Signature{}
	seed := int64(1)
	for _, b := range phishkit.StudyBrands {
		url := phishkit.DeployBrandSite(net, b)
		br := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), seed)
		seed++
		res, err := br.Visit(context.Background(), url)
		if err != nil {
			return err
		}
		refs[b.Name] = imaging.Sign(res.RenderScreenshot())
	}
	fmt.Printf("=== Spear-phishing screenshot triage (%d reference pages) ===\n\n", len(refs))

	// Candidate pages to classify.
	candidates := []struct {
		label string
		cfg   phishkit.SiteConfig
	}{
		{"faithful ACME clone", phishkit.SiteConfig{
			Host: "acme-sso.buzz", Brand: phishkit.BrandAcmeTravelTech}},
		{"hue-rotated SkyBooker clone", phishkit.SiteConfig{
			Host: "skybooker-verify.dev", Brand: phishkit.BrandSkyBooker, HueRotateDeg: 4}},
		{"generic Microsoft page", phishkit.SiteConfig{
			Host: "office-secure.click", Brand: phishkit.BrandMicrosoft}},
	}
	for _, cand := range candidates {
		site := phishkit.Deploy(net, cand.cfg)
		br := browser.New(net, browser.NotABot(), net.AllocateIP(webnet.IPMobile), seed)
		seed++
		res, err := br.Visit(context.Background(), site.LandingURL)
		if err != nil {
			return err
		}
		sig := imaging.Sign(res.RenderScreenshot())
		matched := ""
		var bestP, bestD int
		for brand, ref := range refs {
			if ok, dp, dd := matcher.Match(sig, ref); ok {
				matched = brand
				bestP, bestD = dp, dd
				break
			}
		}
		if matched != "" {
			fmt.Printf("%-28s -> SPEAR PHISH impersonating %s (pHash dist %d, dHash dist %d)\n",
				cand.label, matched, bestP, bestD)
		} else {
			fmt.Printf("%-28s -> no protected brand matched (non-targeted)\n", cand.label)
		}
	}
	fmt.Println()
	fmt.Println("Both fuzzy hashes operate on grayscale structure, so the")
	fmt.Println("hue-rotate(4deg) perturbation found on 167 pages in the corpus")
	fmt.Println("does not defeat the classifier — the paper's exact argument.")
	return nil
}
