package dataset

import (
	"math"
	"math/rand"
	"time"

	"crawlerbox/internal/botdetect"
	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives every random choice; equal seeds give equal corpora.
	Seed int64
	// Scale shrinks the corpus proportionally (1.0 = the paper's 5,181
	// messages). Benchmarks use small scales; reports use 1.0.
	Scale float64
}

// Category is the ground-truth disposition of a generated message.
type Category int

// Ground-truth categories (mirroring the Section V breakdown).
const (
	CatNoResource Category = iota + 1
	CatError
	CatInteraction
	CatDownload
	CatActivePhish
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatNoResource:
		return "no-web-resource"
	case CatError:
		return "error-page"
	case CatInteraction:
		return "interaction-required"
	case CatDownload:
		return "file-download"
	case CatActivePhish:
		return "active-phishing"
	default:
		return "unknown"
	}
}

// Carrier is how the URL travels inside the message.
type Carrier int

// URL carriers.
const (
	CarrierTextLink Carrier = iota + 1
	CarrierHTMLLink
	CarrierQR
	CarrierFaultyQR
	CarrierPDF
	CarrierHTMLAttachment
	CarrierNone
)

// RewriteWrap identifies the gateway URL-rewrite a message's links were
// run through in transit: enterprise mail filters rewrap every outbound
// link (Microsoft Safe Links, Proofpoint URL Defense), so reported
// messages carry the wrapped form while the phishing site lives at the
// canonical URL underneath.
type RewriteWrap int

// Gateway rewrite variants.
const (
	RewriteNone RewriteWrap = iota
	RewriteSafeLinks
	RewriteURLDefense
	// RewriteDouble models a URL Defense link forwarded through a Safe
	// Links tenant: two wrapper layers around the canonical URL.
	RewriteDouble
)

// Message is one generated corpus message with its ground truth. Raw is
// nil in Corpus.Messages: Each renders it on the fly, so the MIME payloads
// never accumulate.
type Message struct {
	Raw       []byte
	Delivered time.Time
	Month     int // 0-9 = Jan-Oct 2024
	Category  Category
	Carrier   Carrier
	DomainIdx int // index into Corpus.Domains, -1 when none
	Spear     bool
	Brand     string
	URL       string
	Noise     bool
	// Rewrite is the gateway URL-rewrite applied to the message's links at
	// render time; URL always stays the canonical (unwrapped) form.
	Rewrite RewriteWrap
	// genIdx is the generator's per-category counter, recorded so render
	// can rebuild the exact bytes (templates index off it).
	genIdx int
	// windowRedirect distinguishes the two HTML-attachment variants.
	windowRedirect bool
}

// DomainRecord is one landing domain with its deployment metadata.
type DomainRecord struct {
	Host         string
	Spear        bool
	Brand        string
	Deceptive    bool
	Provenance   whois.Provenance
	MessageCount int
	Registered   time.Time
	CertIssued   time.Time
	AvgDelivery  time.Time
	DNSTotal30d  int
	Site         *phishkit.Site
	Cloaks       SiteCloaks
	// OTPCode is the access code for OTP-gated domains.
	OTPCode string
}

// SiteCloaks records which evasion layers a domain was configured with.
type SiteCloaks struct {
	Turnstile  bool
	ReCaptcha  bool
	Tokens     bool
	HotLoad    bool
	Console    bool
	Debugger   bool
	Devtools   bool
	HueRotate  bool
	FPGate     bool
	OTP        bool
	Math       bool
	VictimA    bool
	VictimB    bool
	FPLibrary  bool
	ExfilHB    bool
	ExfilIPAPI bool
}

// Corpus is the generated world: network, services, sites, and messages.
type Corpus struct {
	Net       *webnet.Internet
	Registry  *whois.Registry
	Turnstile *botdetect.Turnstile
	ReCaptcha *botdetect.ReCaptchaV3
	Messages  []Message
	Domains   []DomainRecord
	// BrandURLs maps the five protected brand names to their legitimate
	// login URLs (for pipeline references).
	BrandURLs map[string]string
	// Monthly counts actually generated (scaled).
	Monthly [10]int
	cfg     Config
}

var _startTime = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// Stream builds a corpus whose messages are *plans only*: the world
// (network, domains, victims) is fully deployed, but no MIME bytes are
// rendered. Scale defaults to 1.0 and Seed to 1. Consume it with Each,
// which renders one message at a time so peak memory stays O(1) in the
// corpus size.
func Stream(cfg Config) (*Corpus, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	//cblint:ignore determinism generator is seeded from Config.Seed
	rng := rand.New(rand.NewSource(cfg.Seed))
	clock := webnet.NewClock(_startTime)
	net := webnet.NewInternet(clock)
	c := &Corpus{
		Net:       net,
		Registry:  whois.NewRegistry(),
		BrandURLs: map[string]string{},
		cfg:       cfg,
	}

	// Shared services.
	c.Turnstile = botdetect.NewTurnstile(net, "turnstile.example")
	c.ReCaptcha = botdetect.NewReCaptchaV3(net, "recaptcha.example")
	botdetect.NewBotD(net, "botd.example")
	deployEcho(net, "httpbin.example", func(req *webnet.Request) []byte { return []byte(req.ClientIP) })
	deployEcho(net, "ipapi.example", func(*webnet.Request) []byte { return []byte(`{"country":"FR","asn":"AS64500"}`) })
	deployEcho(net, "freeimages.example", func(*webnet.Request) []byte { return []byte("media") })
	deployDriveShare(net, "drive-share.example")
	deployCaptchaWall(net, "captcha-wall.example")

	// Legitimate brand sites.
	for _, b := range phishkit.StudyBrands {
		c.BrandURLs[b.Name] = phishkit.DeployBrandSite(net, b)
	}

	// Scaled disposition counts.
	counts := scaledCounts(cfg.Scale)
	c.Monthly = scaledMonthly(cfg.Scale, counts.total)

	// Landing domains.
	if err := c.generateDomains(rng, counts); err != nil {
		return nil, err
	}

	// Messages (plans; rendering is the caller's choice).
	c.planMessages(counts)
	return c, nil
}

// Each visits every message in delivery order, rendering its Raw bytes on
// demand. The *Message handed to fn is only valid for the call: it points
// at a stack copy whose Raw is discarded afterwards, which is what keeps
// peak memory flat. Return false to stop.
func (c *Corpus) Each(fn func(i int, m *Message) bool) {
	//cblint:ignore streamsafe Each is the sanctioned streaming iterator
	for i := range c.Messages {
		tmp := c.Messages[i]
		tmp.Raw = c.render(&tmp)
		if !fn(i, &tmp) {
			return
		}
	}
}

// Len reports the number of messages without touching their payloads.
func (c *Corpus) Len() int { return len(c.Messages) }

// dispositionCounts holds all scaled quotas.
type dispositionCounts struct {
	total, noURL, errorPages, interaction, download, active int
	spearMsgs, nonTargMsgs                                  int
	spearDoms, nonTargDoms                                  int
}

func scaledCounts(scale float64) dispositionCounts {
	sc := func(n int) int {
		v := int(math.Round(float64(n) * scale))
		if n > 0 && v < 1 {
			v = 1
		}
		return v
	}
	d := dispositionCounts{
		noURL:       sc(CountNoResource),
		errorPages:  sc(CountError),
		interaction: sc(CountInteraction),
		download:    sc(CountDownload),
		active:      sc(CountActivePhish),
		spearDoms:   sc(CountSpearDomains),
		nonTargDoms: sc(CountNonTargDomains),
	}
	d.spearMsgs = sc(CountSpearMessages)
	if d.spearMsgs > d.active {
		d.spearMsgs = d.active
	}
	d.nonTargMsgs = d.active - d.spearMsgs
	if d.spearDoms > d.spearMsgs {
		d.spearDoms = d.spearMsgs
	}
	if d.nonTargDoms > d.nonTargMsgs {
		d.nonTargDoms = max(1, d.nonTargMsgs)
	}
	d.total = d.noURL + d.errorPages + d.interaction + d.download + d.active
	return d
}

func scaledMonthly(scale float64, total int) [10]int {
	var out [10]int
	assigned := 0
	for i, m := range Monthly2024 {
		out[i] = int(math.Round(float64(m) * scale))
		assigned += out[i]
	}
	// Fix rounding drift against the scaled total.
	i := 0
	for assigned < total {
		out[i%10]++
		assigned++
		i++
	}
	for assigned > total {
		if out[i%10] > 0 {
			out[i%10]--
			assigned--
		}
		i++
	}
	return out
}

// allocateCounts distributes total messages over n domains with median 1
// and a heavy tail capped at maxPer.
func allocateCounts(total, n, maxPer int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	remaining := total - n
	if remaining <= 0 {
		// Fewer messages than domains: trim.
		for i := n - 1; i >= 0 && remaining < 0; i-- {
			out[i] = 0
			remaining++
		}
		return out
	}
	// The heaviest domain approaches the cap.
	top := min(maxPer-1, remaining)
	out[0] += top
	remaining -= top
	// Distribute the rest over the first ~45% of domains with harmonic
	// weights, preserving a median of 1.
	spread := max(1, int(float64(n)*0.45))
	for remaining > 0 {
		progress := false
		for i := 1; i <= spread && remaining > 0; i++ {
			add := max(1, spread/(i*2))
			if add > remaining {
				add = remaining
			}
			if out[i%n]+add > maxPer {
				add = maxPer - out[i%n]
			}
			if add > 0 {
				out[i%n] += add
				remaining -= add
				progress = true
			}
		}
		if !progress {
			// All candidates saturated; spill to the rest.
			for i := spread + 1; i < n && remaining > 0; i++ {
				out[i]++
				remaining--
			}
			break
		}
	}
	return out
}

// hoursDur converts fractional hours to a duration with a 2-hour floor.
func hoursDur(hours float64) time.Duration {
	if hours < 2 {
		hours = 2
	}
	return time.Duration(hours * float64(time.Hour))
}

// lognormalHours draws a lognormal with the given median (hours) and sigma.
func lognormalHours(rng *rand.Rand, median, sigma float64) time.Duration {
	v := median * math.Exp(sigma*rng.NormFloat64())
	if v < 2 {
		v = 2
	}
	return time.Duration(v * float64(time.Hour))
}

func deployEcho(net *webnet.Internet, host string, body func(*webnet.Request) []byte) {
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Body: body(req)}
	})
}

func deployDriveShare(net *webnet.Internet, host string) {
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
			Body: []byte(`<html><body><p>A colleague shared a document with you.</p>
<button>Open in viewer</button></body></html>`)}
	})
}

func deployCaptchaWall(net *webnet.Internet, host string) {
	ip := net.AllocateIP(webnet.IPDatacenter)
	net.AddDNS(host, ip)
	net.Serve(host, func(req *webnet.Request) *webnet.Response {
		return &webnet.Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"},
			Body: []byte(`<html><body><p>Select all images containing traffic lights to continue.</p>
<div>[captcha grid]</div></body></html>`)}
	})
}

// monthStart returns the first instant of 2024 month m (0-based).
func monthStart(m int) time.Time {
	return time.Date(2024, time.Month(m+1), 1, 0, 0, 0, 0, time.UTC)
}
