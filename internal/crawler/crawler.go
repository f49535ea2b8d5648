// Package crawler defines the crawler fleet of the paper's Table I: eight
// crawling stacks, each modeled as the fingerprint surface its real-world
// counterpart exposes, plus the assessment harness that challenges every
// crawler against every bot-detection service.
//
// Verdicts are emergent: the profiles encode what each tool's stack
// genuinely leaks (ChromeDriver binaries leave renamed cdc_ slots, headless
// Chrome renders WebGL with SwiftShader, Puppeteer request interception
// forces cache-bypass headers, Java HTTP stacks have non-browser TLS
// fingerprints), and the detectors probe for those leaks.
package crawler

import (
	"context"
	"strings"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/webnet"
)

// Kind identifies one of the assessed crawler stacks.
type Kind int

// The eight crawlers of Table I.
const (
	Kangooroo Kind = iota + 1
	Lacus
	PuppeteerStealth
	SeleniumStealth
	UndetectedChromedriver
	Nodriver
	SeleniumDriverless
	NotABot
)

// AllKinds lists the fleet in Table I column order.
var AllKinds = []Kind{
	Kangooroo, Lacus, PuppeteerStealth, SeleniumStealth,
	UndetectedChromedriver, Nodriver, SeleniumDriverless, NotABot,
}

// String names the crawler.
func (k Kind) String() string {
	switch k {
	case Kangooroo:
		return "Kangooroo"
	case Lacus:
		return "Lacus"
	case PuppeteerStealth:
		return "Puppeteer+stealth"
	case SeleniumStealth:
		return "Selenium+stealth"
	case UndetectedChromedriver:
		return "undetected_chromedriver"
	case Nodriver:
		return "Nodriver"
	case SeleniumDriverless:
		return "Selenium-Driverless"
	case NotABot:
		return "NotABot"
	default:
		return "unknown"
	}
}

const _swiftShader = "Google SwiftShader"

// Profile returns the fingerprint surface of a crawler stack. headless
// selects the headless variant where the tool supports both (the Table I
// footnote: undetected_chromedriver passes BotD only when non-headless).
func Profile(kind Kind, headless bool) browser.Profile {
	p := browser.HumanChrome()
	p.Name = kind.String()
	// Crawlers don't emulate human input unless noted.
	p.MouseMovement = false
	p.TrustedEvents = false
	switch kind {
	case Kangooroo:
		// Java utility driving headless Chrome through a WebDriver stack;
		// URL prefetching goes through the JVM's HTTP client.
		applyHeadless(&p, true)
		p.WebdriverFlag = true
		p.ChromedriverArtifacts = true
		p.CDPArtifacts = true
		p.TLSFingerprint = "771,4865-4866,java-http-client"
		p.SendAcceptLanguage = false
	case Lacus:
		// Playwright capture system: webdriver patched away and a desktop
		// UA, but headless rendering and HAR-style request interception.
		applyHeadless(&p, true)
		p.UserAgent = browser.HumanChrome().UserAgent
		p.InterceptionCacheQuirk = true
	case PuppeteerStealth:
		// puppeteer-extra-plugin-stealth: masks webdriver, UA, plugins and
		// the chrome object — but cannot conjure a GPU in headless mode.
		applyHeadless(&p, true)
		p.UserAgent = browser.HumanChrome().UserAgent
		p.PluginCount = 5
		p.PluginNames = browser.RealChromePlugins
		p.ChromeObject = true
	case SeleniumStealth:
		// selenium-stealth: patches navigator.webdriver but leaves the
		// ChromeDriver cdc_ artifacts in place.
		applyHeadless(&p, true)
		p.UserAgent = browser.HumanChrome().UserAgent
		p.CDPArtifacts = true
		p.ChromedriverArtifacts = true
	case UndetectedChromedriver:
		// Patched ChromeDriver launching a real Chrome: clean JS surface
		// (cdc_ renamed) but the driver binary is still attached.
		applyHeadless(&p, headless)
		p.ChromedriverArtifacts = true
	case Nodriver, SeleniumDriverless:
		// Pure-CDP stacks on a real Chrome: no driver binary, no
		// automation flag; they also synthesize trusted input.
		applyHeadless(&p, headless)
		p.MouseMovement = true
		p.TrustedEvents = true
	case NotABot:
		return browser.NotABot()
	}
	return p
}

// applyHeadless switches the correlated headless signals together.
func applyHeadless(p *browser.Profile, headless bool) {
	p.Headless = headless
	if headless {
		p.UserAgent = strings.Replace(p.UserAgent, "Chrome/", "HeadlessChrome/", 1)
		p.GPURenderer = _swiftShader
		p.ChromeObject = false
		p.PluginCount = 0
		p.PluginNames = nil
		p.SendAcceptLanguage = false
	}
}

// Crawler is one fleet member bound to a network.
type Crawler struct {
	Kind    Kind
	Browser *browser.Browser
}

// New returns a crawler of the given kind attached to the network with its
// own client IP of the given class.
func New(kind Kind, net *webnet.Internet, ipClass webnet.IPClass, seed int64) *Crawler {
	return NewHeadless(kind, net, ipClass, seed, defaultHeadless(kind))
}

// NewHeadless selects the headless variant explicitly.
func NewHeadless(kind Kind, net *webnet.Internet, ipClass webnet.IPClass, seed int64, headless bool) *Crawler {
	ip := net.AllocateIP(ipClass)
	return &Crawler{
		Kind:    kind,
		Browser: browser.New(net, Profile(kind, headless), ip, seed),
	}
}

// defaultHeadless reflects each tool's usual deployment.
func defaultHeadless(kind Kind) bool {
	switch kind {
	case UndetectedChromedriver, Nodriver, SeleniumDriverless, NotABot:
		return false
	default:
		return true
	}
}

// Visit crawls a URL under the caller's context.
func (c *Crawler) Visit(ctx context.Context, url string) (*browser.Result, error) {
	return c.Browser.Visit(ctx, url)
}
