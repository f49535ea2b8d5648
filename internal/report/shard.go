package report

import (
	"sort"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/urlx"
	"crawlerbox/internal/whois"
)

// CensusShard is a partial census: the commutative fold of some subset of a
// run's messages and analyses. Each analysis worker folds its own shard and
// the shards are merged afterwards, so census state never needs the full
// analysis slice in memory.
//
// Every field is either a pure counter/sum, a set union, or an index-pinned
// min/max (first-seen picks the smallest message index, last-writer-wins
// picks the largest), which makes Merge commutative, associative, and
// identity-preserving — the merged shard is the same for any partition of
// the messages across workers and any merge order. The merge laws are
// asserted by property tests in shard_test.go; byte-identity of the derived
// aggregates against the legacy single-pass census is asserted in
// report_equiv_test.go.
type CensusShard struct {
	total         int
	outcomeCounts map[string]int
	cloakCounts   map[string]int
	// hosts maps each landing host (any outcome) to the smallest message
	// index that reached it, so finalize can replay first-seen order.
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
	// minIdx is the smallest message index folded into this shard (-1 when
	// empty); Analyze merges shards in ascending minIdx order.
	minIdx int
}

// groupCell is the per-landing-domain partial: everything the timeline,
// DNS, spear, and brand aggregates need from a group of analyses, reduced
// to O(1) state with index-pinned first/last selections.
type groupCell struct {
	count   int
	sumUnix int64
	// reg/cert hold the WHOIS registration and certificate issuance from
	// the highest-indexed analysis that carried them (the legacy census
	// overwrote them in message order, so last writer wins).
	regIdx  int // -1 when no analysis carried WHOIS
	reg     time.Time
	certIdx int // -1 when no analysis carried a certificate
	cert    time.Time
	// first* mirror the group's lowest-indexed analysis, which anchors the
	// passive-DNS medians.
	firstIdx      int
	firstSkipDNS  bool
	firstDNSTotal int
	firstDNSMax   int
	// brandBucket classifies the lowest-indexed non-spear analysis's page
	// title (-1 when the group has no non-spear analysis).
	brandIdx    int
	brandBucket string
}

// NewCensusShard returns an empty shard — the identity element of Merge.
func NewCensusShard() *CensusShard {
	return &CensusShard{
		outcomeCounts: map[string]int{},
		cloakCounts:   map[string]int{},
		hosts:         map[string]int{},
		groups:        map[string]*groupCell{},
		landingURLs:   map[string]bool{},
		minIdx:        -1,
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

// AddAnalysis folds one completed analysis at its corpus index. It must run
// before bulky evidence (Visits) is spilled: hot-load detection and landing
// titles read the visit records.
//
//cblint:hotpath
func (s *CensusShard) AddAnalysis(idx int, ma *crawlerbox.MessageAnalysis) {
	if ma == nil {
		return
	}
	if s.minIdx < 0 || idx < s.minIdx {
		s.minIdx = idx
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
		if j, ok := s.hosts[ma.Landing.Host]; !ok || idx < j {
			s.hosts[ma.Landing.Host] = idx
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
		g = &groupCell{regIdx: -1, certIdx: -1, firstIdx: idx, brandIdx: -1}
		g.setFirst(ma)
		s.groups[ma.Landing.Registrable] = g
	} else if idx < g.firstIdx {
		g.firstIdx = idx
		g.setFirst(ma)
	}
	g.count++
	g.sumUnix += ma.AnalyzedAt.Unix()
	if ma.Landing.Whois != nil && idx > g.regIdx {
		g.regIdx = idx
		g.reg = ma.Landing.Whois.Registered
	}
	if ma.Landing.Cert != nil && idx > g.certIdx {
		g.certIdx = idx
		g.cert = ma.Landing.Cert.IssuedAt
	}
	if !ma.SpearPhish && (g.brandIdx < 0 || idx < g.brandIdx) {
		g.brandIdx = idx
		g.brandBucket = brandOfTitle(landingTitle(ma))
	}
}

// setFirst records the DNS anchor fields from the group's (new) lowest-
// indexed analysis.
func (g *groupCell) setFirst(ma *crawlerbox.MessageAnalysis) {
	g.firstSkipDNS = ma.Landing.Whois != nil &&
		ma.Landing.Whois.Provenance != whois.ProvenanceFresh
	g.firstDNSTotal = ma.Landing.DNS30DayTotal
	g.firstDNSMax = ma.Landing.DNSMaxDaily
}

// Merge folds o into s. It is commutative and associative, and a fresh
// shard is its identity: every constituent is a sum, a set union, or an
// index-pinned min/max, so the result is independent of how the messages
// were partitioned and in which order partials merge.
func (s *CensusShard) Merge(o *CensusShard) {
	if o == nil {
		return
	}
	if o.minIdx >= 0 && (s.minIdx < 0 || o.minIdx < s.minIdx) {
		s.minIdx = o.minIdx
	}
	s.total += o.total
	//cblint:ignore maprange per-key counter addition is order-independent
	for k, v := range o.outcomeCounts {
		s.outcomeCounts[k] += v
	}
	//cblint:ignore maprange per-key counter addition is order-independent
	for k, v := range o.cloakCounts {
		s.cloakCounts[k] += v
	}
	//cblint:ignore maprange per-key min is order-independent
	for h, i := range o.hosts {
		if j, ok := s.hosts[h]; !ok || i < j {
			s.hosts[h] = i
		}
	}
	//cblint:ignore maprange set union is order-independent
	for u := range o.landingURLs {
		s.landingURLs[u] = true
	}
	s.active += o.active
	s.spear += o.spear
	s.hotLoad += o.hotLoad
	s.referrals += o.referrals
	s.cred += o.cred
	s.turnstile += o.turnstile
	s.recaptcha += o.recaptcha
	for i := range s.monthly {
		s.monthly[i] += o.monthly[i]
	}
	//cblint:ignore maprange per-key cell merge is order-independent
	for k, og := range o.groups {
		g := s.groups[k]
		if g == nil {
			cp := *og
			s.groups[k] = &cp
			continue
		}
		g.count += og.count
		g.sumUnix += og.sumUnix
		if og.regIdx > g.regIdx {
			g.regIdx, g.reg = og.regIdx, og.reg
		}
		if og.certIdx > g.certIdx {
			g.certIdx, g.cert = og.certIdx, og.cert
		}
		if og.firstIdx < g.firstIdx {
			g.firstIdx = og.firstIdx
			g.firstSkipDNS = og.firstSkipDNS
			g.firstDNSTotal = og.firstDNSTotal
			g.firstDNSMax = og.firstDNSMax
		}
		if og.brandIdx >= 0 && (g.brandIdx < 0 || og.brandIdx < g.brandIdx) {
			g.brandIdx, g.brandBucket = og.brandIdx, og.brandBucket
		}
	}
}

// finalize derives the memoized census from the fully merged shard. The
// derivations replicate the legacy single-pass buildCensus byte-for-byte
// (asserted by report_equiv_test.go).
func (s *CensusShard) finalize() *census {
	c := &census{monthly: s.monthly}

	// Landing hosts in first-seen (ascending message index) order.
	type hostIdx struct {
		host string
		idx  int
	}
	byIdx := make([]hostIdx, 0, len(s.hosts))
	//cblint:ignore maprange collected then sorted by message index
	for h, i := range s.hosts {
		byIdx = append(byIdx, hostIdx{h, i})
	}
	sort.Slice(byIdx, func(i, j int) bool { return byIdx[i].idx < byIdx[j].idx })
	hosts := make([]string, len(byIdx))
	for i, hi := range byIdx {
		hosts[i] = hi.host
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
		if g := s.groups[k]; g.brandIdx >= 0 {
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
