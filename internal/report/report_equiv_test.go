package report

import (
	"context"
	"net/url"
	"sort"
	"sync"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/stats"
	"crawlerbox/internal/urlx"
	"crawlerbox/internal/whois"
)

// This file pins the memoized census to the original per-call aggregation
// semantics: every legacy* function below is a verbatim transplant of the
// pre-census Run method (each one a full scan over the analyses), and the
// tests assert that the census-backed methods render byte-identical output.

// _shared caches the analyses of a second corpus of _sharedConfig, the
// input of the legacy scans.
var _shared struct {
	once     sync.Once
	corpus   *dataset.Corpus
	analyses []*crawlerbox.MessageAnalysis
	err      error
}

// sharedAnalyses returns the analyses of a fresh corpus of the shared Run's
// Config, in corpus order, and that corpus. Analysis is deterministic per Config, so they are the
// analyses the shared Run folded into its census.
func sharedAnalyses(t *testing.T) (*dataset.Corpus, []*crawlerbox.MessageAnalysis) {
	t.Helper()
	_shared.once.Do(func() {
		_shared.corpus, _shared.analyses, _shared.err = collectAnalyses(_sharedConfig)
	})
	if _shared.err != nil {
		t.Fatal(_shared.err)
	}
	return _shared.corpus, _shared.analyses
}

// collectAnalyses analyzes a fresh corpus of cfg through AnalyzeSpecs with
// the specs Analyze sends and a sink that keeps every analysis, indexed by
// message (nil for a failed one).
func collectAnalyses(cfg dataset.Config, opts ...Option) (*dataset.Corpus, []*crawlerbox.MessageAnalysis, error) {
	c, err := dataset.Stream(cfg)
	if err != nil {
		return nil, nil, err
	}
	analyses := make([]*crawlerbox.MessageAnalysis, c.Len())
	produce := func(send func(crawlerbox.IndexedSpec) bool) {
		c.Each(func(i int, m *dataset.Message) bool {
			return send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{
				Raw: m.Raw,
				ID:  int64(i + 1),
				At:  m.Delivered.Add(2 * time.Hour),
			}})
		})
	}
	sink := func(res crawlerbox.CorpusResult) {
		if res.Err == nil {
			analyses[res.Index] = res.Analysis
		}
	}
	if err := AnalyzeSpecs(context.Background(), c, produce, sink, opts...); err != nil {
		return nil, nil, err
	}
	return c, analyses, nil
}

// legacyLandingDomains groups active-phish analyses by registrable landing
// domain (the original Run.landingDomains).
func legacyLandingDomains(analyses []*crawlerbox.MessageAnalysis) map[string][]*crawlerbox.MessageAnalysis {
	out := map[string][]*crawlerbox.MessageAnalysis{}
	for _, ma := range analyses {
		if ma == nil || ma.Outcome != crawlerbox.OutcomeActivePhish || ma.Landing == nil {
			continue
		}
		out[ma.Landing.Registrable] = append(out[ma.Landing.Registrable], ma)
	}
	return out
}

func legacyDisposition(analyses []*crawlerbox.MessageAnalysis) []DispositionRow {
	counts := map[string]int{}
	total := 0
	for _, ma := range analyses {
		if ma == nil {
			continue
		}
		total++
		label := ma.Outcome.String()
		if ma.Outcome == crawlerbox.OutcomeCloaked {
			label = crawlerbox.OutcomeError.String()
		}
		counts[label]++
	}
	return dispositionRows(counts, total)
}

func legacyMonthlySeries(c *dataset.Corpus) [10]int {
	var out [10]int
	for _, m := range c.Messages {
		if m.Month >= 0 && m.Month < 10 {
			out[m.Month]++
		}
	}
	return out
}

func legacyTable2(analyses []*crawlerbox.MessageAnalysis) []urlx.TLDCount {
	var hosts []string
	for _, ma := range analyses {
		if ma == nil || ma.Landing == nil {
			continue
		}
		hosts = append(hosts, ma.Landing.Host)
	}
	hosts = dedupe(hosts)
	return urlx.TLDDistribution(hosts)
}

func legacyFigure3(analyses []*crawlerbox.MessageAnalysis) (TimelineStats, error) {
	groups := legacyLandingDomains(analyses)
	var deltaA, deltaB []float64
	for _, analyses := range groups {
		var sumUnix int64
		var reg, cert time.Time
		var haveReg, haveCert bool
		for _, ma := range analyses {
			sumUnix += ma.AnalyzedAt.Unix()
			if ma.Landing.Whois != nil {
				reg = ma.Landing.Whois.Registered
				haveReg = true
			}
			if ma.Landing.Cert != nil {
				cert = ma.Landing.Cert.IssuedAt
				haveCert = true
			}
		}
		avgDelivery := time.Unix(sumUnix/int64(len(analyses)), 0)
		if haveReg {
			deltaA = append(deltaA, avgDelivery.Sub(reg).Hours())
		}
		if haveCert {
			deltaB = append(deltaB, avgDelivery.Sub(cert).Hours())
		}
	}
	out := TimelineStats{DomainCount: len(groups)}
	const ninetyDaysHours = 90 * 24
	fill := func(xs []float64, hist *[9]int, over *int) {
		for _, x := range xs {
			if x >= ninetyDaysHours {
				*over++
				continue
			}
			bin := int(x / (10 * 24))
			if bin < 0 {
				bin = 0
			}
			if bin > 8 {
				bin = 8
			}
			hist[bin]++
		}
	}
	fill(deltaA, &out.HistA, &out.OverA)
	fill(deltaB, &out.HistB, &out.OverB)
	var err error
	if out.MedianAHours, err = stats.Median(deltaA); err != nil {
		return out, err
	}
	if out.MedianBHours, err = stats.Median(deltaB); err != nil {
		return out, err
	}
	if out.KurtosisA, err = stats.Kurtosis(deltaA); err != nil {
		return out, err
	}
	if out.KurtosisB, err = stats.Kurtosis(deltaB); err != nil {
		return out, err
	}
	return out, nil
}

func legacySpear(analyses []*crawlerbox.MessageAnalysis) SpearStats {
	out := SpearStats{}
	urls := map[string]bool{}
	for _, ma := range analyses {
		if ma == nil || ma.Outcome != crawlerbox.OutcomeActivePhish {
			continue
		}
		out.Active++
		if ma.SpearPhish {
			out.Spear++
			if ma.HotLoadsRef || hotLoads(ma) {
				out.HotLoad++
			}
		}
		if ma.Landing != nil {
			urls[ma.Landing.URL] = true
		}
	}
	groups := legacyLandingDomains(analyses)
	out.DistinctDomains = len(groups)
	out.DistinctURLs = len(urls)
	if out.Active > 0 {
		out.SpearPercent = 100 * float64(out.Spear) / float64(out.Active)
	}
	if out.Spear > 0 {
		out.HotLoadPercent = 100 * float64(out.HotLoad) / float64(out.Spear)
	}
	var counts []float64
	maxC := 0
	for _, g := range groups {
		counts = append(counts, float64(len(g)))
		if len(g) > maxC {
			maxC = len(g)
		}
	}
	out.MaxMsgsPerDomain = maxC
	out.MeanMsgsPerDomain = stats.Mean(counts)
	out.MedianMsgsPerDomain, _ = stats.Median(counts)
	return out
}

func legacyDNSVolumes(analyses []*crawlerbox.MessageAnalysis) DNSStats {
	groups := legacyLandingDomains(analyses)
	var st, sm, mt, mm []float64
	var totals []int
	for _, analyses := range groups {
		first := analyses[0]
		if first.Landing.Whois != nil && first.Landing.Whois.Provenance != whois.ProvenanceFresh {
			continue
		}
		total := float64(first.Landing.DNS30DayTotal)
		maxDaily := float64(first.Landing.DNSMaxDaily)
		totals = append(totals, first.Landing.DNS30DayTotal)
		if len(analyses) == 1 {
			st = append(st, total)
			sm = append(sm, maxDaily)
		} else {
			mt = append(mt, total)
			mm = append(mm, maxDaily)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(totals)))
	if len(totals) > 3 {
		totals = totals[:3]
	}
	out := DNSStats{Top3Totals: totals}
	out.SingleMedianTotal, _ = stats.Median(st)
	out.SingleMedianMax, _ = stats.Median(sm)
	out.MultiMedianTotal, _ = stats.Median(mt)
	out.MultiMedianMax, _ = stats.Median(mm)
	return out
}

func legacyDomainSyntax(analyses []*crawlerbox.MessageAnalysis) SyntaxStats {
	analyzer := urlx.NewDeceptionAnalyzer([]string{
		"acme", "acmetraveltech", "skybooker", "farewell", "transitgo",
		"payroute", "microsoft", "onedrive", "office", "docusign", "excel",
	})
	seen := map[string]bool{}
	out := SyntaxStats{}
	for _, ma := range analyses {
		if ma == nil || ma.Landing == nil || seen[ma.Landing.Host] {
			continue
		}
		seen[ma.Landing.Host] = true
		out.Domains++
		techniques := analyzer.Analyze(ma.Landing.Host)
		if len(techniques) > 0 {
			out.Deceptive++
		}
		for _, tech := range techniques {
			if tech == urlx.DeceptionPunycode {
				out.Punycode++
			}
		}
	}
	if out.Domains > 0 {
		out.Percent = 100 * float64(out.Deceptive) / float64(out.Domains)
	}
	return out
}

func legacyCloakPrevalence(analyses []*crawlerbox.MessageAnalysis) []CloakRow {
	counts := map[string]int{}
	for _, ma := range analyses {
		if ma == nil {
			continue
		}
		countCloaks(counts, ma)
	}
	return cloakRows(counts)
}

func legacyNonTargetedBrands(analyses []*crawlerbox.MessageAnalysis) []BrandRow {
	counts := map[string]int{}
	seen := map[string]bool{}
	for _, ma := range analyses {
		if ma == nil || ma.Outcome != crawlerbox.OutcomeActivePhish ||
			ma.SpearPhish || ma.Landing == nil || seen[ma.Landing.Registrable] {
			continue
		}
		seen[ma.Landing.Registrable] = true
		counts[brandOfTitle(landingTitle(ma))]++
	}
	return brandRows(counts)
}

func legacyTurnstileShare(analyses []*crawlerbox.MessageAnalysis) (turnstilePct, recaptchaPct float64) {
	var cred, ts, rc int
	for _, ma := range analyses {
		if ma == nil || ma.Outcome != crawlerbox.OutcomeActivePhish {
			continue
		}
		cred++
		if ma.Cloaks.Turnstile {
			ts++
		}
		if ma.Cloaks.ReCaptcha {
			rc++
		}
	}
	if cred == 0 {
		return 0, 0
	}
	return 100 * float64(ts) / float64(cred), 100 * float64(rc) / float64(cred)
}

// TestCensusMatchesLegacyAggregates renders every aggregate through both
// the memoized census and the original per-call scan, and asserts the
// bytes are identical.
func TestCensusMatchesLegacyAggregates(t *testing.T) {
	run := sharedRun(t)
	c, analyses := sharedAnalyses(t)
	legacyTS, legacyRC := legacyTurnstileShare(analyses)
	legacyF3, legacyF3Err := legacyFigure3(analyses)
	for name, pair := range map[string][2]string{
		"disposition": {run.RenderDisposition(), formatDisposition(legacyDisposition(analyses))},
		"table2":      {run.RenderTable2(), formatTable2(legacyTable2(analyses))},
		"figure3":     {run.RenderFigure3(), formatFigure3(legacyF3, legacyF3Err)},
		"spear": {run.RenderSpear(),
			formatSpear(legacySpear(analyses), legacyDNSVolumes(analyses), legacyDomainSyntax(analyses))},
		"cloaks":      {run.RenderCloaks(), formatCloaks(legacyCloakPrevalence(analyses), legacyTS, legacyRC)},
		"nontargeted": {run.RenderNonTargeted(), formatNonTargeted(legacyNonTargetedBrands(analyses))},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: census and legacy aggregates render differently\ncensus:\n%s\nlegacy:\n%s",
				name, pair[0], pair[1])
		}
	}
	if got, want := run.MonthlySeries(), legacyMonthlySeries(c); got != want {
		t.Errorf("monthly series: census %v, legacy %v", got, want)
	}
}

// TestCensusRepeatedCallsStable asserts the memoized aggregates render
// identically on every call (the copy-out must not expose shared state).
func TestCensusRepeatedCallsStable(t *testing.T) {
	run := sharedRun(t)
	first := run.RenderSpear() + run.RenderTable2() + run.RenderCloaks()
	// Mutate the returned copies; the census must be unaffected.
	if rows := run.Table2(); len(rows) > 0 {
		rows[0] = urlx.TLDCount{TLD: ".poisoned", Count: 999, Percent: 99}
	}
	if rows := run.CloakPrevalence(); len(rows) > 0 {
		rows[0].Technique = "poisoned"
	}
	if d := run.DNSVolumes(); len(d.Top3Totals) > 0 {
		d.Top3Totals[0] = -1
	}
	second := run.RenderSpear() + run.RenderTable2() + run.RenderCloaks()
	if first != second {
		t.Errorf("aggregates drift across calls:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestCensusConcurrentAccess hammers every aggregate method from many
// goroutines on a fresh Run, so `go test -race` proves the lazily built
// census is safe under concurrent first use.
func TestCensusConcurrentAccess(t *testing.T) {
	run := sharedRun(t)
	// Reset memoization on a shallow copy so the goroutines race to build.
	fresh := &Run{Corpus: run.Corpus, shard: run.shard, Errors: run.Errors}
	want := run.RenderDisposition() + run.RenderSpear() + run.RenderCloaks()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := fresh.RenderDisposition() + fresh.RenderSpear() + fresh.RenderCloaks()
			if got != want {
				errs <- got
			}
			_ = fresh.Disposition()
			_, _ = fresh.Figure3()
			_ = fresh.Table2()
			_ = fresh.DNSVolumes()
			_ = fresh.DomainSyntax()
			_ = fresh.CloakPrevalence()
			_ = fresh.NonTargetedBrands()
			_, _ = fresh.TurnstileShare()
			_ = fresh.MonthlySeries()
			_ = fresh.HotLoadReferrals()
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		if len(bad) > 400 {
			bad = bad[:400]
		}
		t.Errorf("concurrent aggregate diverged:\n%s", bad)
	}
}

// TestHotLoadReferralsMatchesLedgerScan pins the run's referral count to
// a scan of the request logs that a second corpus of the same Config left
// in its analyses' visits: every brand-logo request that carried a Referer,
// its path parsed with net/url.
func TestHotLoadReferralsMatchesLedgerScan(t *testing.T) {
	run := sharedRun(t)
	_, analyses := sharedAnalyses(t)
	want := 0
	for _, ma := range analyses {
		if ma == nil {
			continue
		}
		for _, v := range ma.Visits {
			if v.Result == nil {
				continue
			}
			for _, req := range v.Result.Requests {
				u, err := url.Parse(req.URL)
				if err == nil && u.Path == "/assets/logo.png" && req.Referer != "" {
					want++
				}
			}
		}
	}
	if want == 0 {
		t.Fatal("the corpus's visits sent no logo referral")
	}
	if got := run.HotLoadReferrals(); got != want {
		t.Errorf("HotLoadReferrals = %d, request-log scan = %d", got, want)
	}
}

// dedupe returns xs without duplicates, preserving first-seen order, in a
// single pass with exactly one map and one slice allocation.
func dedupe(xs []string) []string {
	seen := make(map[string]struct{}, len(xs))
	out := make([]string, 0, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}
