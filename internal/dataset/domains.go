package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"crawlerbox/internal/phishkit"
	"crawlerbox/internal/whois"
)

// _neutralWords builds innocuous-looking domain labels — the paper's key
// observation is that most landing domains carry no deceptive markers.
var _neutralWords = []string{
	"meadow", "harbor", "cobalt", "lantern", "orchid", "summit", "willow",
	"ember", "quartz", "breeze", "falcon", "cedar", "marble", "voyage",
	"beacon", "canyon", "tundra", "velvet", "aurora", "prairie", "garnet",
	"mosaic", "drift", "alpine", "coral", "zephyr", "linden", "harvest",
	"juniper", "cascade", "onyx", "saffron", "tidal", "bramble", "solace",
}

var _phishyWords = []string{"login", "secure", "verify", "account", "portal", "auth", "update"}

// _banners are the Shodan-style service banners rotated across phishing
// hosts: the commodity hosting stacks kits deploy onto.
var _banners = []string{
	"nginx/1.24.0", "Apache/2.4.58 (Ubuntu)", "cloudflare",
	"LiteSpeed", "nginx/1.18.0", "Caddy",
}

// generateDomains creates, registers, and deploys every landing domain.
func (c *Corpus) generateDomains(rng *rand.Rand, counts dispositionCounts) error {
	numDomains := counts.spearDoms + counts.nonTargDoms
	spearCounts := allocateCounts(counts.spearMsgs, counts.spearDoms, MaxMessagesPerDomain)
	nonTargCounts := allocateCounts(counts.nonTargMsgs, counts.nonTargDoms, MaxMessagesPerDomain)

	tlds := tldAssignments(numDomains)
	// Scaled structural quotas (domain-level).
	scale := c.cfg.Scale
	decSpear := scaleQuota(CountDeceptiveSpear, scale)
	decNonTarg := scaleQuota(CountDeceptiveNonTarg, scale)
	compromised := scaleQuota(CountOutlierCompromised+4, scale) // incl. cert outliers
	abused := scaleQuota(CountOutlierAbused, scale)

	idx := 0
	brandRot := 0
	seenHosts := map[string]bool{}
	nonTargBrands := nonTargetedBrandList(counts.nonTargDoms)
	for group := 0; group < 2; group++ {
		spear := group == 0
		var counts []int
		if spear {
			counts = spearCounts
		} else {
			counts = nonTargCounts
		}
		for i, msgCount := range counts {
			if msgCount == 0 {
				continue
			}
			d := DomainRecord{Spear: spear, MessageCount: msgCount}
			// Brand.
			if spear {
				d.Brand = phishkit.StudyBrands[brandRot%len(phishkit.StudyBrands)].Name
				brandRot++
			} else {
				d.Brand = nonTargBrands[i%len(nonTargBrands)]
			}
			// Provenance: compromised and abused-service domains come from
			// the tail of each group.
			switch {
			case abused > 0 && i >= len(counts)-2 && !spear:
				d.Provenance = whois.ProvenanceAbusedService
				abused--
			case compromised > 0 && i%9 == 7:
				d.Provenance = whois.ProvenanceCompromised
				compromised--
			default:
				d.Provenance = whois.ProvenanceFresh
			}
			// Name + TLD.
			deceptive := false
			if spear && decSpear > 0 && i%5 == 2 {
				deceptive = true
				decSpear--
			}
			if !spear && decNonTarg > 0 && i%8 == 5 {
				deceptive = true
				decNonTarg--
			}
			d.Deceptive = deceptive
			tld := tlds[idx%len(tlds)]
			d.Host = c.domainName(rng, idx, d, tld)
			for seenHosts[d.Host] {
				d.Host = fmt.Sprintf("x%d-%s", idx, d.Host)
			}
			seenHosts[d.Host] = true
			c.Domains = append(c.Domains, d)
			idx++
		}
	}
	c.assignTimelines(rng)
	c.assignCloaks()
	c.deployDomains(rng)
	return nil
}

// nonTargetedBrandList expands the non-targeted brand plan into a
// per-domain brand assignment of length n.
func nonTargetedBrandList(n int) []string {
	var out []string
	total := 0
	for _, p := range NonTargetedBrandPlan {
		total += p.Count
	}
	for _, p := range NonTargetedBrandPlan {
		c := p.Count * n / total
		if c < 1 {
			c = 1
		}
		for i := 0; i < c; i++ {
			out = append(out, p.Brand)
		}
	}
	for len(out) < n {
		out = append(out, "MICROSOFT")
	}
	return out[:n]
}

func scaleQuota(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if n > 0 && scale >= 0.2 && v < 1 {
		v = 1
	}
	return v
}

// tldAssignments expands the Table II plan into a per-domain TLD list.
func tldAssignments(n int) []string {
	var out []string
	total := 0
	for _, p := range TLDPlan {
		total += p.Count
	}
	for _, p := range TLDPlan {
		c := p.Count * n / total
		if c < 1 {
			c = 1
		}
		for i := 0; i < c; i++ {
			out = append(out, p.TLD)
		}
	}
	for len(out) < n {
		out = append(out, ".com")
	}
	return out[:n]
}

// domainName derives a deterministic host name for a domain record.
func (c *Corpus) domainName(rng *rand.Rand, idx int, d DomainRecord, tld string) string {
	if d.Provenance == whois.ProvenanceAbusedService {
		suffix := AbusedServiceSuffixes[idx%len(AbusedServiceSuffixes)]
		return fmt.Sprintf("site-%04d.%s", idx, suffix)
	}
	if d.Deceptive {
		brandToken := strings.ToLower(strings.Split(d.Brand, " ")[0])
		switch idx % 4 {
		case 0: // combosquatting
			return brandToken + "-" + _phishyWords[idx%len(_phishyWords)] + tld
		case 1: // typosquatting: a distinct edit-distance-1 mutation per idx
			return typoVariant(brandToken, idx/4) + tld
		case 2: // target embedding
			return brandToken + ".host-" + _neutralWords[idx%len(_neutralWords)] + tld
		default: // keyword stuffing
			return _phishyWords[idx%len(_phishyWords)] + "-" +
				_phishyWords[(idx+3)%len(_phishyWords)] + tld
		}
	}
	a := _neutralWords[idx%len(_neutralWords)]
	b := _neutralWords[(idx*7+3)%len(_neutralWords)]
	if rng.Intn(2) == 0 {
		return a + "-" + b + tld
	}
	return a + b + fmt.Sprintf("%d", idx%97) + tld
}

// typoVariant derives the variant-th edit-distance-1 mutation of a brand
// token: letter drops, doublings, and adjacent swaps, cycling so the
// deceptive-name space is large enough to stay collision-free.
func typoVariant(tok string, variant int) string {
	if len(tok) < 4 {
		return tok + "x"
	}
	n := len(tok)
	switch variant % 3 {
	case 0: // drop a letter
		pos := 1 + variant%(n-1)
		return tok[:pos] + tok[pos+1:]
	case 1: // double a letter
		pos := variant % n
		return tok[:pos+1] + tok[pos:]
	default: // swap adjacent letters
		pos := variant % (n - 1)
		if tok[pos] == tok[pos+1] {
			pos = (pos + 1) % (n - 1)
		}
		return tok[:pos] + string(tok[pos+1]) + string(tok[pos]) + tok[pos+2:]
	}
}

// assignTimelines draws registration/cert/delivery times per domain.
func (c *Corpus) assignTimelines(rng *rand.Rand) {
	// Distribute domains over months proportionally to message volume.
	active := 0
	for i := range c.Domains {
		active += c.Domains[i].MessageCount
	}
	month := 0
	budget := monthActiveBudget(c.Monthly, active, 0)
	certOutliers := 0
	wantCertOutliers := scaleQuota(CountCertOutliers-1, c.cfg.Scale) // 4 compromised
	freshCertOutlier := false
	for i := range c.Domains {
		d := &c.Domains[i]
		for budget < d.MessageCount && month < 9 {
			month++
			budget = monthActiveBudget(c.Monthly, active, month)
		}
		budget -= d.MessageCount
		base := monthStart(month).Add(time.Duration(rng.Intn(25*24)) * time.Hour)
		d.AvgDelivery = base

		if d.Provenance == whois.ProvenanceCompromised {
			// Legitimate domain registered long ago; cert usually recent
			// (re-issued by the hosting stack). The first few carry old
			// certificates — the paper's 4-of-5 cert outliers.
			d.Registered = base.Add(-time.Duration(300+rng.Intn(900)) * 24 * time.Hour)
			if certOutliers < wantCertOutliers {
				certOutliers++
				d.CertIssued = base.Add(-time.Duration(91+rng.Intn(200)) * 24 * time.Hour)
			} else {
				d.CertIssued = base.Add(-lognormalHours(rng, TimedeltaBMedianHours, TimedeltaBSigma))
			}
		} else {
			// Registration and certificate leads are drawn jointly with a
			// shared campaign-preparation factor, so registration precedes
			// certificate issuance almost surely while both marginals keep
			// their calibrated medians and sigmas (1.54 for A; the B draw
			// splits its 1.05 sigma into sqrt(0.99^2 + 0.35^2)).
			u := rng.NormFloat64()
			v := rng.NormFloat64()
			da := hoursDur(TimedeltaAMedianHours * math.Exp(TimedeltaASigma*u))
			db := hoursDur(TimedeltaBMedianHours * math.Exp(0.99*u+0.35*v))
			if db >= da {
				da = db * 13 / 10
			}
			const ninetyDays = 90 * 24 * time.Hour
			switch {
			case db >= ninetyDays && !freshCertOutlier:
				// One fresh domain keeps its >90-day certificate — the
				// fifth cert outlier alongside the four compromised ones.
				freshCertOutlier = true
			case db >= ninetyDays:
				db = ninetyDays - time.Duration(1+rng.Intn(200))*time.Hour
				if db >= da {
					da = db * 13 / 10
				}
			}
			if db < time.Hour {
				db = time.Hour
			}
			d.Registered = base.Add(-da)
			d.CertIssued = base.Add(-db)
		}
	}
}

func monthActiveBudget(monthly [10]int, totalActive, month int) int {
	totalAll := 0
	for _, m := range monthly {
		totalAll += m
	}
	if totalAll == 0 {
		return 0
	}
	return monthly[month] * totalActive / totalAll
}

// assignCloaks walks the domains consuming message-count quotas for each
// evasion layer.
func (c *Corpus) assignCloaks() {
	scale := c.cfg.Scale
	activeMsgs := 0
	for i := range c.Domains {
		activeMsgs += c.Domains[i].MessageCount
	}
	// Challenge-service shares are fractions of the credential-harvesting
	// subset (943/1267 and 314/1267); every generated site harvests
	// credentials, so the share applies to the whole active set.
	q := map[string]int{
		"turnstile": activeMsgs * CountTurnstile / CountCredentialSubset,
		"recaptcha": activeMsgs * CountReCaptcha / CountCredentialSubset,
		"console":   scaleQuota(CountConsoleHijack, scale),
		"debugger":  scaleQuota(CountDebuggerTimer, scale),
		"devtools":  scaleQuota(CountDevtoolsBlock, scale),
		"huerotate": scaleQuota(CountHueRotateMsgs, scale),
		"fpgate":    scaleQuota(CountFingerprintGate, scale),
		"otp":       scaleQuota(CountOTPGate, scale),
		"math":      scaleQuota(CountMathChallenge, scale),
		"fplib":     scaleQuota(CountFPLibrary, scale),
		"httpbin":   scaleQuota(CountExfilHTTPBin, scale),
		"ipapi":     scaleQuota(CountExfilIPAPI, scale),
		"victimA":   scaleQuota(CountVictimCheckAMsgs, scale),
		"victimB":   scaleQuota(CountVictimCheckBMsgs, scale),
		"hotload":   scaleQuota(CountHotLoadSpear, scale),
		"tokens":    scaleQuota(900, scale), // tokenized spear campaigns
	}
	// Proportional controller: each flag tracks how many of the messages
	// processed so far are flagged, and flags a domain whenever its share
	// is behind target — robust to heavy-tailed domain sizes.
	active := 0
	for i := range c.Domains {
		active += c.Domains[i].MessageCount
	}
	spearMsgs := 0
	for i := range c.Domains {
		if c.Domains[i].Spear {
			spearMsgs += c.Domains[i].MessageCount
		}
	}
	// hotload and tokens only apply to spear domains; their controllers
	// track spear messages, not the whole active set.
	spearKeys := map[string]bool{"hotload": true, "tokens": true}
	flagged := map[string]int{}
	processed := 0
	processedSpear := 0
	take := func(key string, n int) bool {
		target := q[key]
		denom := active
		base := processed
		if spearKeys[key] {
			denom = spearMsgs
			base = processedSpear
		}
		if target <= 0 || denom == 0 {
			return false
		}
		expected := float64(target) * float64(base) / float64(denom)
		devFlag := float64(flagged[key]+n) - expected
		devSkip := expected - float64(flagged[key])
		if devFlag < 0 {
			devFlag = -devFlag
		}
		if devSkip < 0 {
			devSkip = -devSkip
		}
		if devFlag <= devSkip {
			flagged[key] += n
			return true
		}
		return false
	}
	for i := range c.Domains {
		d := &c.Domains[i]
		n := d.MessageCount
		processed += n
		if d.Spear {
			processedSpear += n
		}
		// Challenge services ride on credential-harvesting campaigns.
		if take("turnstile", n) {
			d.Cloaks.Turnstile = true
			if take("recaptcha", n) {
				d.Cloaks.ReCaptcha = true
			}
		}
		// Exclusive client-side gate slot.
		switch {
		case d.Spear && take("victimA", n):
			d.Cloaks.VictimA = true
		case d.Spear && take("victimB", n):
			d.Cloaks.VictimB = true
		case take("fpgate", n):
			d.Cloaks.FPGate = true
		case take("otp", n):
			d.Cloaks.OTP = true
		case take("math", n):
			d.Cloaks.Math = true
		}
		// Independent layers.
		if take("console", n) {
			d.Cloaks.Console = true
		}
		if take("debugger", n) {
			d.Cloaks.Debugger = true
		}
		if take("devtools", n) {
			d.Cloaks.Devtools = true
		}
		if take("huerotate", n) {
			d.Cloaks.HueRotate = true
		}
		if take("httpbin", n) {
			d.Cloaks.ExfilHB = true
			if take("ipapi", n) {
				d.Cloaks.ExfilIPAPI = true
			}
		}
		if n == 1 && d.AvgDelivery.Month() == time.July && take("fplib", n) {
			d.Cloaks.FPLibrary = true
		}
		if d.Spear {
			if take("hotload", n) {
				d.Cloaks.HotLoad = true
			}
			if take("tokens", n) {
				d.Cloaks.Tokens = true
			}
		}
	}
}

// deployDomains registers WHOIS records, issues certificates, sets DNS
// volumes, and deploys the phishing sites.
func (c *Corpus) deployDomains(rng *rand.Rand) {
	brandByName := map[string]phishkit.Brand{}
	for _, b := range phishkit.StudyBrands {
		brandByName[b.Name] = b
	}
	for _, b := range phishkit.SaaSBrands {
		brandByName[b.Name] = b
	}
	sawThirdVolume := false
	for i := range c.Domains {
		d := &c.Domains[i]
		registrar := "NameCheap-Intl"
		if strings.HasSuffix(d.Host, ".ru") {
			registrar = RuRegistrarsRotation[i%len(RuRegistrarsRotation)]
		}
		c.Registry.Register(whois.Record{
			Domain:     registrableOf(d.Host),
			Registrar:  registrar,
			Registered: d.Registered,
			Provenance: d.Provenance,
		})
		c.Net.IssueCert(d.Host, "LetsEncrypt", d.CertIssued)

		// Passive-DNS victim traffic. High-volume outliers spread over the
		// full window; targeted campaigns burst over ~2 days, which is what
		// makes their max-daily counts a meaningful fraction of the total.
		window := 2 * 24 * time.Hour
		switch {
		case i == 0: // the 58-message outlier gets the top volume
			d.DNSTotal30d = DNSTopVolume
			window = 30 * 24 * time.Hour
		case i == 1:
			d.DNSTotal30d = DNSSecondVolume
			window = 30 * 24 * time.Hour
		case d.MessageCount == 1 && !sawThirdVolume:
			d.DNSTotal30d = DNSThirdVolume
			sawThirdVolume = true
			window = 30 * 24 * time.Hour
		case d.MessageCount == 1:
			d.DNSTotal30d = DNSSingleMedianTotal + rng.Intn(21) - 10
		default:
			d.DNSTotal30d = DNSMultiMedianTotal + rng.Intn(41) - 20
		}
		if d.DNSTotal30d < 5 {
			d.DNSTotal30d = 5
		}
		c.Net.RecordBackgroundQueries(d.Host, d.DNSTotal30d, window, d.AvgDelivery.Add(12*time.Hour))

		cfg := phishkit.SiteConfig{
			Host:               d.Host,
			Brand:              brandByName[d.Brand],
			HotLoadBrandAssets: d.Cloaks.HotLoad,
			ConsoleHijack:      d.Cloaks.Console,
			DebuggerTimer:      d.Cloaks.Debugger,
		}
		if d.Cloaks.Turnstile {
			cfg.Turnstile = c.Turnstile
		}
		if d.Cloaks.ReCaptcha {
			cfg.ReCaptcha = c.ReCaptcha
		}
		if d.Cloaks.HueRotate {
			cfg.HueRotateDeg = 4
		}
		if d.Cloaks.FPGate {
			cfg.FingerprintGate = true
		}
		if d.Cloaks.OTP {
			d.OTPCode = fmt.Sprintf("%06d", 100000+i*7919%900000)
			cfg.OTPCode = d.OTPCode
		}
		if d.Cloaks.FPLibrary {
			cfg.FPLibraryHost = "botd.example"
		}
		if d.Cloaks.Math {
			cfg.MathChallenge = true
		}
		if d.Cloaks.VictimA || d.Cloaks.VictimB {
			cfg.VictimCheckC2 = d.Host
		}
		if d.Cloaks.ExfilHB {
			cfg.ExfilHTTPBin = "httpbin.example"
			if d.Cloaks.ExfilIPAPI {
				cfg.ExfilIPAPI = "ipapi.example"
			}
		}
		if d.Cloaks.Tokens {
			tokens := make([]string, d.MessageCount)
			for t := range tokens {
				tokens[t] = fmt.Sprintf("u%03dx%04d", i, t)
			}
			cfg.Tokens = tokens
		}
		d.Site = phishkit.Deploy(c.Net, cfg)
		if ip, ok := c.Net.LookupDNS(d.Host); ok {
			c.Net.SetBanner(ip, _banners[i%len(_banners)])
		}
	}
}

func registrableOf(host string) string {
	parts := strings.Split(host, ".")
	if len(parts) <= 2 {
		return host
	}
	return strings.Join(parts[len(parts)-2:], ".")
}
