package report

import (
	"sort"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/urlx"
	"crawlerbox/internal/whois"
)

// CensusShard is the census of a run: one fold of its messages and of its
// analyses in corpus order, so census state never needs the full analysis
// slice in memory. AnalyzeSpecs commits results in spec order, so the
// order-sensitive fields (first-seen hosts, a group's first and last
// analysis) are plain first and last assignments. Byte-identity of the
// derived aggregates against the legacy single-pass census is asserted in
// report_equiv_test.go.
type CensusShard struct {
	total         int
	outcomeCounts map[string]int
	cloakCounts   map[string]int
	// hosts maps each landing host (any outcome) to its first-seen rank,
	// so finalize can list the hosts in first-seen order.
	hosts       map[string]int
	groups      map[string]*groupCell
	landingURLs map[string]bool
	active      int
	spear       int
	hotLoad     int
	// referrals counts the brand-logo requests the visits sent with a
	// Referer header (Run.HotLoadReferrals).
	referrals int
	cred      int
	turnstile int
	recaptcha int
	monthly   [10]int
}

// groupCell is the per-landing-domain partial: everything the timeline,
// DNS, spear, and brand aggregates need from a group of analyses, reduced
// to O(1) state.
type groupCell struct {
	count   int
	sumUnix int64
	// reg/cert hold the WHOIS registration and certificate issuance from
	// the last analysis that carried them (the legacy census overwrote
	// them in message order).
	hasReg  bool
	reg     time.Time
	hasCert bool
	cert    time.Time
	// first* mirror the group's first analysis, which anchors the
	// passive-DNS medians.
	firstSkipDNS  bool
	firstDNSTotal int
	firstDNSMax   int
	// brandBucket classifies the first non-spear analysis's page title
	// ("" when the group has no non-spear analysis).
	brandBucket string
}

// NewCensusShard returns an empty census.
func NewCensusShard() *CensusShard {
	return &CensusShard{
		outcomeCounts: map[string]int{},
		cloakCounts:   map[string]int{},
		hosts:         map[string]int{},
		groups:        map[string]*groupCell{},
		landingURLs:   map[string]bool{},
	}
}

// AddMessage folds one corpus message plan (the monthly series needs only
// delivery months, so the producer folds these while streaming specs out).
//
//cblint:hotpath
func (s *CensusShard) AddMessage(m *dataset.Message) {
	if m.Month >= 0 && m.Month < 10 {
		s.monthly[m.Month]++
	}
}

// AddAnalysis folds the next completed analysis, in corpus order. It must
// run before bulky evidence (Visits) is spilled: hot-load detection and
// landing titles read the visit records.
//
//cblint:hotpath
func (s *CensusShard) AddAnalysis(ma *crawlerbox.MessageAnalysis) {
	if ma == nil {
		return
	}
	// Disposition: merge cloaked-benign into the error/inaccessible row the
	// way the paper's accounting does.
	s.total++
	label := ma.Outcome.String()
	if ma.Outcome == crawlerbox.OutcomeCloaked {
		label = crawlerbox.OutcomeError.String()
	}
	s.outcomeCounts[label]++

	// Evasion census (all messages, not just active phish).
	countCloaks(s.cloakCounts, ma)
	s.referrals += logoReferrals(ma)

	if ma.Landing != nil {
		if _, ok := s.hosts[ma.Landing.Host]; !ok {
			s.hosts[ma.Landing.Host] = len(s.hosts)
		}
	}

	if ma.Outcome != crawlerbox.OutcomeActivePhish {
		return
	}
	// Spear-phishing shares (Section V-A).
	s.active++
	if ma.SpearPhish {
		s.spear++
		if ma.HotLoadsRef || hotLoads(ma) {
			s.hotLoad++
		}
	}
	s.cred++
	if ma.Cloaks.Turnstile {
		s.turnstile++
	}
	if ma.Cloaks.ReCaptcha {
		s.recaptcha++
	}
	if ma.Landing == nil {
		return
	}
	// The distinct-URL count (Table: landing page census) is defined over
	// full URLs; growth is bounded by the active-phish population, which the
	// corpus spec caps well below the message count.
	//cblint:ignore hotalloc distinct-URL census requires the full URL key; bounded by active-phish population
	s.landingURLs[ma.Landing.URL] = true

	g := s.groups[ma.Landing.Registrable]
	if g == nil {
		g = &groupCell{
			firstSkipDNS: ma.Landing.Whois != nil &&
				ma.Landing.Whois.Provenance != whois.ProvenanceFresh,
			firstDNSTotal: ma.Landing.DNS30DayTotal,
			firstDNSMax:   ma.Landing.DNSMaxDaily,
		}
		s.groups[ma.Landing.Registrable] = g
	}
	g.count++
	g.sumUnix += ma.AnalyzedAt.Unix()
	if ma.Landing.Whois != nil {
		g.hasReg, g.reg = true, ma.Landing.Whois.Registered
	}
	if ma.Landing.Cert != nil {
		g.hasCert, g.cert = true, ma.Landing.Cert.IssuedAt
	}
	if !ma.SpearPhish && g.brandBucket == "" {
		g.brandBucket = brandOfTitle(landingTitle(ma))
	}
}

// finalize derives the memoized census from the folded shard. The
// derivations replicate the legacy single-pass buildCensus byte-for-byte
// (asserted by report_equiv_test.go).
func (s *CensusShard) finalize() *census {
	c := &census{monthly: s.monthly}

	// Landing hosts in first-seen order.
	hosts := make([]string, len(s.hosts))
	//cblint:ignore maprange each host lands in the slot of its first-seen rank
	for h, i := range s.hosts {
		hosts[i] = h
	}

	// Deterministic iteration order over the landing-domain groups.
	groupKeys := make([]string, 0, len(s.groups))
	//cblint:ignore maprange collected then sorted
	for k := range s.groups {
		groupKeys = append(groupKeys, k)
	}
	sort.Strings(groupKeys)

	brandCounts := map[string]int{}
	for _, k := range groupKeys {
		if g := s.groups[k]; g.brandBucket != "" {
			brandCounts[g.brandBucket]++
		}
	}

	c.disposition = dispositionRows(s.outcomeCounts, s.total)
	c.table2 = urlx.TLDDistribution(hosts)
	c.figure3, c.figure3Err = timelineStats(s.groups, groupKeys)
	c.referrals = s.referrals
	c.spear = spearStats(s.active, s.spear, s.hotLoad, len(s.landingURLs), s.groups, groupKeys)
	c.dns = dnsStats(s.groups, groupKeys)
	c.syntax = syntaxStats(hosts)
	c.cloaks = cloakRows(s.cloakCounts)
	c.brands = brandRows(brandCounts)
	if s.cred > 0 {
		c.turnstilePct = 100 * float64(s.turnstile) / float64(s.cred)
		c.recaptchaPct = 100 * float64(s.recaptcha) / float64(s.cred)
	}
	return c
}
