package crawlerbox

import (
	"context"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/webnet"
)

// DifferentialProbe implements the defense the paper's discussion proposes:
// detect URLs whose behavior changes with the visitor's fingerprint by
// crawling the same URL twice — once with a human-indistinguishable profile
// and once with an overtly automated one — and diffing the outcomes. A page
// that shows a credential form to the "human" but a decoy to the "bot" is
// fingerprint-cloaked by construction, regardless of which specific check
// it runs.
type DifferentialProbe struct {
	// HumanVisit / BotVisit are the two observations.
	HumanVisit *browser.Result
	BotVisit   *browser.Result
	// Cloaked is true when the two observations diverge materially.
	Cloaked bool
	// Evidence lists the divergences found.
	Evidence []string
}

// RunDifferentialProbe crawls url with a NotABot profile and a headless
// automation profile and compares what each was served. For probing inside
// a corpus analysis, insert DiffProbeStage into Pipeline.Stages instead.
func (p *Pipeline) RunDifferentialProbe(url string) (*DifferentialProbe, error) {
	//cblint:ignore ctxflow RunDifferentialProbe is the documented no-cancellation wrapper around the stage-aware core
	return p.runDifferentialProbe(context.Background(), nil, url)
}

// runDifferentialProbe is the stage-aware core: with a non-nil Execution
// the two browsers draw seeds from the per-message stream and tick the
// analysis-local clock; without one they draw from the pipeline counter.
func (p *Pipeline) runDifferentialProbe(ctx context.Context, ex *Execution, url string) (*DifferentialProbe, error) {
	nextSeed := p.nextSeed
	if ex != nil {
		nextSeed = ex.nextSeed
	}
	human := p.NewBrowser(nextSeed())

	botProfile := browser.HumanChrome()
	botProfile.Name = "probe-bot"
	botProfile.WebdriverFlag = true
	botProfile.Headless = true
	botProfile.GPURenderer = "Google SwiftShader"
	botProfile.PluginCount = 0
	botProfile.PluginNames = nil
	botProfile.ChromeObject = false
	botProfile.MouseMovement = false
	botProfile.TrustedEvents = false
	// Datacenter scanners run UTC with a bare language set — exactly the
	// environment-coherence signals the fingerprint gates key on.
	botProfile.Timezone = "UTC"
	botProfile.TimezoneOffset = 0
	botProfile.Language = "en"
	botProfile.Languages = []string{"en"}
	botSeed := nextSeed()
	bot := browser.New(p.Net, botProfile, p.Net.SeededIP(webnet.IPDatacenter, botSeed), botSeed)
	if ex != nil {
		ex.attach(human)
		ex.attach(bot)
	}

	humanRes, humanErr := human.Visit(ctx, url)
	botRes, botErr := bot.Visit(ctx, url)

	probe := &DifferentialProbe{HumanVisit: humanRes, BotVisit: botRes}
	switch {
	case humanErr != nil && botErr != nil:
		return probe, humanErr
	case humanErr == nil && botErr != nil:
		probe.Cloaked = true
		probe.Evidence = append(probe.Evidence, "bot visit failed where human visit succeeded")
		return probe, nil
	case humanErr != nil:
		return probe, humanErr
	}

	humanForm := hasPhishForm(humanRes)
	botForm := hasPhishForm(botRes)
	if humanForm != botForm {
		probe.Cloaked = true
		probe.Evidence = append(probe.Evidence, "credential form shown only to the human profile")
	}
	if humanRes.FinalURL != botRes.FinalURL {
		probe.Cloaked = true
		probe.Evidence = append(probe.Evidence, "navigation diverged: human="+
			humanRes.FinalURL+" bot="+botRes.FinalURL)
	}
	if humanSig, ok := p.sign(humanRes); ok {
		if botSig, ok := p.sign(botRes); ok {
			if match, _, _ := p.Matcher.Match(humanSig, botSig); !match {
				probe.Cloaked = true
				probe.Evidence = append(probe.Evidence, "rendered pages differ visually")
			}
		}
	}
	if textOf(humanRes.DOM) != textOf(botRes.DOM) && !probe.Cloaked {
		probe.Cloaked = true
		probe.Evidence = append(probe.Evidence, "page text differs between profiles")
	}
	return probe, nil
}

func textOf(doc *htmlx.Node) string {
	if doc == nil {
		return ""
	}
	return doc.InnerText()
}
