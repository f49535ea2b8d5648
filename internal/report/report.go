// Package report runs the CrawlerBox pipeline over a generated corpus and
// aggregates the paper's tables and figures: the message-disposition
// breakdown, Figure 2's monthly series with the 2023-vs-2024 paired t-test,
// Table II's TLD distribution, Figure 3's deployment-timeline histograms
// with medians and kurtosis, the passive-DNS volume medians, the
// domain-syntax census, the spear-phishing and hot-loading shares, and the
// cloaking-prevalence table.
//
// Every aggregate is served from a memoized census index derived from a
// CensusShard — one fold of the analyses in corpus order. Analyze streams
// message specs through the AnalyzeSpecs run loop, which commits each
// result in spec order, and the census folds it as it commits, so census
// state is O(domains), not O(corpus); repeated aggregate
// calls — the paper's workload, where each table and figure re-queries the
// same analyzed corpus — cost a copy of the precomputed rows instead of a
// full corpus re-scan.
package report

import (
	"context"
	"fmt"
	neturl "net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/stats"
	"crawlerbox/internal/tracestore"
	"crawlerbox/internal/urlx"
)

// Run couples a corpus with the census of its pipeline analyses. The
// analyses themselves are folded into the census as they complete and
// never accumulate in memory.
type Run struct {
	Corpus *dataset.Corpus
	// Errors counts messages whose analysis failed outright.
	Errors int

	// shard is the census folded during Analyze; nil for a zero Run, whose
	// aggregates are those of an empty corpus.
	shard *CensusShard

	// censusOnce guards the lazily built census index. The index is
	// immutable once built, so any number of goroutines may call the
	// aggregate methods concurrently.
	censusOnce sync.Once
	census     *census
}

// options collects the run configuration assembled by Option values.
type options struct {
	workers      int
	observer     *obs.Observer
	resilience   *resilience.Policy
	evidencePath string
	tracePath    string
}

// resolve applies opts over the defaults.
func resolve(opts []Option) options {
	op := options{workers: 1}
	for _, o := range opts {
		o(&op)
	}
	if op.workers < 1 {
		op.workers = 1
	}
	return op
}

// Option configures one aspect of an Analyze or AnalyzeSpecs run.
type Option func(*options)

// WithWorkers sets the analysis worker-pool size (default 1, i.e. serial).
// Because each message runs on a private clock fork with a seed stream keyed
// by its corpus index, the aggregated Run is bitwise identical for every
// worker count.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithObserver wires observability into the run: the pipeline records a
// trace per message and the corpus network feeds the observer's metrics
// registry. A nil observer disables both (the default). Because span
// timelines read each analysis's private clock fork and metrics use only
// commutative operations, the observer's exports are byte-identical for
// every worker count.
func WithObserver(o *obs.Observer) Option {
	return func(op *options) { op.observer = o }
}

// WithResilience arms the deterministic fault-and-recovery layer: each
// message draws a seeded fault schedule from the policy and recovers via
// virtual-clock retries and per-host circuit breakers. A nil policy leaves
// the layer disarmed (the default).
func WithResilience(p *resilience.Policy) Option {
	return func(o *options) { o.resilience = p }
}

// WithEvidencePath spills bulky evidence to an on-disk store at path: each
// analysis's visit records (markup, screenshots, request logs) are encoded
// into one checksummed record — addressed afterwards by the analysis's
// Evidence handle — and the corpus network appends one record per HTTP
// exchange to the same store (without a store it records no traffic; read
// the exchanges back with webnet.EachExchange). The spill happens after
// the run's sink has seen the analysis, so every aggregate is identical
// with or without a store; only the residency of the evidence changes.
// The run owns the store's whole lifecycle: it creates the file and
// closes it before returning. An empty path disables spilling (the
// default).
func WithEvidencePath(path string) Option {
	return func(o *options) { o.evidencePath = path }
}

// WithTraceStorePath persists the run's triage index at path: each
// message's verdict row (outcome, domains, cloak flags, and the visit
// facts the Classify stage adjudicated from) plus its span tree land in a
// segment the run creates, finalizes, and closes — queryable afterwards
// with `obsreport -store`. Implies observability: when no WithObserver is
// given, the run creates an internal observer so span trees and metrics
// exist to persist. The segment bytes are canonical — identical for every
// worker count. An empty path disables the store (the default).
func WithTraceStorePath(path string) Option {
	return func(o *options) { o.tracePath = path }
}

// NewPipeline assembles the analysis pipeline over the corpus world — the
// one place a corpus becomes a pipeline. A non-nil observer records a
// trace per message and receives the corpus network's metrics; a non-nil
// policy arms the resilience layer. Every protected brand's login page is
// registered as a reference under ctx.
func NewPipeline(ctx context.Context, c *dataset.Corpus, observer *obs.Observer, policy *resilience.Policy) (*crawlerbox.Pipeline, error) {
	pipe := crawlerbox.New(c.Net, c.Registry)
	if observer != nil {
		pipe.Obs = observer
		c.Net.Metrics = observer.Metrics
	}
	pipe.Resilience = policy
	if err := pipe.AddReferences(ctx, c.BrandURLs); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return pipe, nil
}

// AnalyzeSpecs is the run loop every batch tool shares. It creates the
// stores the options name, assembles the pipeline over c's world
// (NewPipeline), and runs produce on its own goroutine: each spec produce
// sends flows through the crawlerbox.AnalyzeStream worker pool. send
// blocks while the pool is busy and reports false once ctx is cancelled;
// produce should then return. produce must send the specs with Index 0,
// 1, 2, … in that order.
//
// Results commit in spec order, one at a time: each goes first to sink,
// then to the trace store as a verdict row with ID Index+1, then to the
// evidence store. A worker whose result is not next waits, holding it,
// until every earlier spec has committed; since AnalyzeStream returns one
// result per spec it receives, Skipped ones included, the next result is
// always held by a running worker and at most workers−1 wait. sink
// therefore needs no locking, and everything a run writes is in the same
// order at any worker count.
//
// AnalyzeSpecs owns the stores' whole lifecycle: it creates them,
// finalizes the trace store after the last result, and closes both before
// returning. The first evidence-spill failure fails the run.
func AnalyzeSpecs(ctx context.Context, c *dataset.Corpus, produce func(send func(crawlerbox.IndexedSpec) bool),
	sink func(res crawlerbox.CorpusResult), opts ...Option) error {
	op := resolve(opts)
	var evidence *evstore.Store
	if op.evidencePath != "" {
		st, err := evstore.Create(op.evidencePath)
		if err != nil {
			return fmt.Errorf("report: evidence store: %w", err)
		}
		// No-op after the checked Close below.
		defer st.Close()
		evidence = st
		c.Net.SpillTrafficTo(st)
		// Once the run returns, the network records no traffic rather than
		// appending to the store the run has closed.
		defer c.Net.SpillTrafficTo(nil)
	}
	var tstore *tracestore.Writer
	if op.tracePath != "" {
		w, err := tracestore.Create(op.tracePath)
		if err != nil {
			return fmt.Errorf("report: trace store: %w", err)
		}
		// No-op after the Finalize below succeeds; aborts the segment on
		// every error path.
		defer w.Close()
		tstore = w
		if op.observer == nil {
			// The trace store persists span trees and metrics, so it needs
			// an observer even when the caller didn't ask for live exports.
			op.observer = obs.New()
		}
	}
	pipe, err := NewPipeline(ctx, c, op.observer, op.resilience)
	if err != nil {
		return err
	}

	specs := make(chan crawlerbox.IndexedSpec, op.workers)
	go func() {
		defer close(specs)
		sent := 0
		produce(func(is crawlerbox.IndexedSpec) bool {
			if is.Index != sent {
				// A gap or a repeat would leave the commit order waiting
				// for a result that never comes.
				panic(fmt.Sprintf("report: produce sent spec index %d, want %d", is.Index, sent))
			}
			select {
			case specs <- is:
				sent++
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	var (
		mu   sync.Mutex
		turn = sync.NewCond(&mu)
		next int // index of the next result to commit; guarded by mu
		// The one encoder keeps its record buffer and screenshot canvas
		// from one spill to the next.
		encoder  crawlerbox.EvidenceEncoder
		spillErr error
	)
	crawlerbox.AnalyzeStream(ctx, pipe.Analyze, specs, op.workers, func(res crawlerbox.CorpusResult) {
		mu.Lock()
		for res.Index != next {
			turn.Wait()
		}
		mu.Unlock()
		// No other result passes the wait until next moves on, so the
		// commit runs alone without holding mu across the caller's sink.
		if res.Skipped && op.observer != nil {
			op.observer.Metrics.Inc("crawlerbox_corpus_skipped_total")
		}
		sink(res)
		tstore.Add(tracestore.VerdictOf(int64(res.Index+1), res.Analysis, res.Err))
		// Spill AFTER the sink: hot-load detection and landing titles read
		// the visit records the spill strips.
		if err := crawlerbox.SpillEvidence(evidence, &encoder, res.Analysis); err != nil && spillErr == nil {
			spillErr = err
		}
		mu.Lock()
		next++
		turn.Broadcast()
		mu.Unlock()
	})
	if spillErr != nil {
		return fmt.Errorf("report: evidence spill: %w", spillErr)
	}
	if tstore != nil {
		if err := tstore.Finalize(op.observer.Traces(), op.observer.Metrics.Snapshot()); err != nil {
			return fmt.Errorf("report: trace store: %w", err)
		}
	}
	if evidence != nil {
		if err := evidence.Close(); err != nil {
			return fmt.Errorf("report: evidence store: %w", err)
		}
	}
	return nil
}

// Analyze runs the pipeline over the corpus and aggregates the Run. Each
// message is analyzed at its delivery time plus the paper's two-hour
// reporting lag, on a private fork of the virtual clock, with a seed stream
// keyed by its corpus index — so the aggregated Run is bitwise identical for
// every worker count. The context cancels the run; messages not yet analyzed
// at cancellation are counted in Run.Errors.
//
// Messages stream through AnalyzeSpecs one at a time — the producer renders
// specs on demand (Corpus.Each) and the census folds each result as it
// commits, in corpus order — so peak memory is O(workers), not O(corpus),
// and every aggregate is served from the one CensusShard.
//
// Concurrency, observability, fault injection, and the on-disk stores are
// all opt-in through the Option values.
func Analyze(ctx context.Context, c *dataset.Corpus, opts ...Option) (*Run, error) {
	run := &Run{Corpus: c, shard: NewCensusShard()}
	produced := 0
	produce := func(send func(crawlerbox.IndexedSpec) bool) {
		c.Each(func(i int, m *dataset.Message) bool {
			// The producer folds the monthly series as plans flow past.
			run.shard.AddMessage(m)
			if !send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{
				Raw: m.Raw,
				ID:  int64(i + 1),
				At:  m.Delivered.Add(2 * time.Hour),
			}}) {
				return false
			}
			produced++
			return true
		})
	}
	sink := func(res crawlerbox.CorpusResult) {
		if res.Err != nil {
			run.Errors++
			return
		}
		run.shard.AddAnalysis(res.Analysis)
	}
	if err := AnalyzeSpecs(ctx, c, produce, sink, opts...); err != nil {
		return nil, err
	}
	// AnalyzeSpecs has returned, so the producer has exited. Messages the
	// cancelled producer never sent still count as errors.
	run.Errors += c.Len() - produced
	return run, nil
}

// census is the memoized index behind every Run aggregate. It is derived
// lazily exactly once (Run.index) from the run's shard and never
// mutated afterwards; methods that return slices hand out copies so
// callers can't corrupt it.
type census struct {
	disposition []DispositionRow
	monthly     [10]int
	table2      []urlx.TLDCount
	figure3     TimelineStats
	figure3Err  error
	spear       SpearStats
	referrals   int
	dns         DNSStats
	syntax      SyntaxStats
	cloaks      []CloakRow
	brands      []BrandRow
	// turnstilePct / recaptchaPct are the challenge-service shares over
	// credential-harvesting messages.
	turnstilePct, recaptchaPct float64
}

// index returns the census, building it on first use.
func (r *Run) index() *census {
	r.censusOnce.Do(func() { r.census = r.buildCensus() })
	return r.census
}

// buildCensus finalizes the run's shard. The derivations replicate
// the legacy per-call scans byte-for-byte (asserted by the equivalence
// tests in report_equiv_test.go).
func (r *Run) buildCensus() *census {
	if r.shard == nil {
		return NewCensusShard().finalize()
	}
	return r.shard.finalize()
}

// DispositionRow is one row of the Section V breakdown.
type DispositionRow struct {
	Label   string
	Count   int
	Percent float64
}

// dispositionRows assembles the fixed-order disposition table.
func dispositionRows(counts map[string]int, total int) []DispositionRow {
	order := []string{
		crawlerbox.OutcomeNoResource.String(),
		crawlerbox.OutcomeError.String(),
		crawlerbox.OutcomeInteraction.String(),
		crawlerbox.OutcomeDownload.String(),
		crawlerbox.OutcomeActivePhish.String(),
	}
	// Partial evidence only exists under fault injection; appending the row
	// conditionally keeps the default table byte-identical to the paper's.
	if partial := crawlerbox.OutcomePartial.String(); counts[partial] > 0 {
		order = append(order, partial)
	}
	out := make([]DispositionRow, 0, len(order))
	for _, label := range order {
		row := DispositionRow{Label: label, Count: counts[label]}
		if total > 0 {
			row.Percent = 100 * float64(row.Count) / float64(total)
		}
		out = append(out, row)
	}
	return out
}

// Disposition aggregates outcomes, merging cloaked-benign into the error/
// inaccessible row the way the paper's accounting does.
func (r *Run) Disposition() []DispositionRow {
	return append([]DispositionRow(nil), r.index().disposition...)
}

// MonthlySeries returns Figure 2's per-month scanned-message counts.
func (r *Run) MonthlySeries() [10]int {
	return r.index().monthly
}

// Figure2Stats carries the volume statistics the paper reports with Fig 2.
type Figure2Stats struct {
	Mean2024, Std2024 float64
	Mean2023, Std2023 float64
	// TTest pairs the two windows in calendar order. Note: the paper's
	// published monthly aggregates (means, sigmas, and the final-quarter
	// 2023 values) cannot produce its p = 0.008 under calendar pairing —
	// the 2023 tail spike dominates the difference variance; see
	// EXPERIMENTS.md.
	TTest stats.TTestResult
	// TTestRank pairs the series by rank (largest month vs largest month),
	// the distribution-level comparison that does reach high significance.
	TTestRank stats.TTestResult
}

// Figure2 computes the monthly statistics and the paired t-tests against
// the 2023 baseline (scaled alongside the corpus).
func (r *Run) Figure2() (Figure2Stats, error) {
	series := r.MonthlySeries()
	y24 := stats.IntsToFloats(series[:])
	scale := float64(r.Corpus.Len()) / float64(dataset.TotalMessages)
	y23 := make([]float64, 10)
	for i, v := range dataset.Monthly2023 {
		y23[i] = float64(v) * scale
	}
	tt, err := stats.PairedTTest(y23, y24)
	if err != nil {
		return Figure2Stats{}, err
	}
	s23 := append([]float64{}, y23...)
	s24 := append([]float64{}, y24...)
	sort.Float64s(s23)
	sort.Float64s(s24)
	ttRank, err := stats.PairedTTest(s23, s24)
	if err != nil {
		return Figure2Stats{}, err
	}
	return Figure2Stats{
		Mean2024: stats.Mean(y24), Std2024: stats.StdDev(y24),
		Mean2023: stats.Mean(y23), Std2023: stats.StdDev(y23),
		TTest:     tt,
		TTestRank: ttRank,
	}, nil
}

// Table2 returns the TLD distribution over the crawled landing domains.
func (r *Run) Table2() []urlx.TLDCount {
	return append([]urlx.TLDCount(nil), r.index().table2...)
}

// TimelineStats carries Figure 3's summary statistics.
type TimelineStats struct {
	// Hist counts per 10-day bin under 90 days.
	HistA, HistB               [9]int
	MedianAHours, MedianBHours float64
	KurtosisA, KurtosisB       float64
	OverA, OverB               int // domains beyond 90 days
	DomainCount                int
}

// timelineStats joins each landing domain's WHOIS registration and
// certificate issuance against the mean delivery time of its messages.
func timelineStats(groups map[string]*groupCell, keys []string) (TimelineStats, error) {
	deltaA := make([]float64, 0, len(keys))
	deltaB := make([]float64, 0, len(keys))
	for _, key := range keys {
		g := groups[key]
		avgDelivery := time.Unix(g.sumUnix/int64(g.count), 0)
		if g.hasReg {
			deltaA = append(deltaA, avgDelivery.Sub(g.reg).Hours())
		}
		if g.hasCert {
			deltaB = append(deltaB, avgDelivery.Sub(g.cert).Hours())
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

// Figure3 returns the memoized deployment-timeline statistics.
func (r *Run) Figure3() (TimelineStats, error) {
	c := r.index()
	return c.figure3, c.figure3Err
}

// SpearStats carries the Section V-A classification shares.
type SpearStats struct {
	Active, Spear, HotLoad int
	SpearPercent           float64
	HotLoadPercent         float64
	DistinctDomains        int
	DistinctURLs           int
	MeanMsgsPerDomain      float64
	MedianMsgsPerDomain    float64
	MaxMsgsPerDomain       int
}

// spearStats assembles the spear-phishing aggregate from census counters.
func spearStats(active, spear, hotLoad, distinctURLs int,
	groups map[string]*groupCell, keys []string) SpearStats {
	out := SpearStats{
		Active: active, Spear: spear, HotLoad: hotLoad,
		DistinctDomains: len(groups),
		DistinctURLs:    distinctURLs,
	}
	if out.Active > 0 {
		out.SpearPercent = 100 * float64(out.Spear) / float64(out.Active)
	}
	if out.Spear > 0 {
		out.HotLoadPercent = 100 * float64(out.HotLoad) / float64(out.Spear)
	}
	counts := make([]float64, 0, len(keys))
	maxC := 0
	for _, key := range keys {
		g := groups[key]
		counts = append(counts, float64(g.count))
		if g.count > maxC {
			maxC = g.count
		}
	}
	out.MaxMsgsPerDomain = maxC
	out.MeanMsgsPerDomain = stats.Mean(counts)
	out.MedianMsgsPerDomain, _ = stats.Median(counts)
	return out
}

// Spear returns the memoized spear-phishing classification aggregate.
func (r *Run) Spear() SpearStats {
	return r.index().spear
}

// hotLoads detects hot-loaded brand assets from the recorded traffic.
func hotLoads(ma *crawlerbox.MessageAnalysis) bool {
	for _, v := range ma.Visits {
		if v.Result == nil {
			continue
		}
		for _, req := range v.Result.Requests {
			if (req.Initiator == "img" || req.Initiator == "stylesheet") &&
				strings.Contains(req.URL, ".example/assets/") {
				return true
			}
		}
	}
	return false
}

// logoPath is the path the brand pages and the kits that hot-load them
// serve the brand logo from.
const logoPath = "/assets/logo.png"

// logoReferrals counts the requests for a brand logo that the analysis's
// visits sent with a Referer header.
func logoReferrals(ma *crawlerbox.MessageAnalysis) int {
	n := 0
	for _, v := range ma.Visits {
		if v.Result == nil {
			continue
		}
		for _, req := range v.Result.Requests {
			// Parse only the few requests that can match.
			if req.Referer == "" || !strings.Contains(req.URL, logoPath) {
				continue
			}
			if u, err := neturl.Parse(req.URL); err == nil && u.Path == logoPath {
				n++
			}
		}
	}
	return n
}

// HotLoadReferrals counts the brand-logo requests the analyses' visits
// sent with a Referer header — the referral trail a brand's asset server
// sees, the early-warning signal of Section V-A. It is read from the
// census, so it is the same with or without an evidence store and at any
// worker count.
func (r *Run) HotLoadReferrals() int {
	return r.index().referrals
}

// DNSStats carries the Umbrella-style medians.
type DNSStats struct {
	SingleMedianTotal, SingleMedianMax float64
	MultiMedianTotal, MultiMedianMax   float64
	Top3Totals                         []int
}

// dnsStats computes passive-DNS medians for single- vs multi-message
// landing domains, excluding compromised and abused-service hosts the way
// the paper filters them.
func dnsStats(groups map[string]*groupCell, keys []string) DNSStats {
	var st, sm, mt, mm []float64
	var totals []int
	for _, key := range keys {
		g := groups[key]
		if g.firstSkipDNS {
			continue
		}
		total := float64(g.firstDNSTotal)
		maxDaily := float64(g.firstDNSMax)
		totals = append(totals, g.firstDNSTotal)
		if g.count == 1 {
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

// DNSVolumes returns the memoized passive-DNS volume aggregate.
func (r *Run) DNSVolumes() DNSStats {
	d := r.index().dns
	d.Top3Totals = append([]int(nil), d.Top3Totals...)
	return d
}

// SyntaxStats counts deceptive domain syntax among landing domains.
type SyntaxStats struct {
	Domains   int
	Deceptive int
	Percent   float64
	Punycode  int
}

// syntaxStats runs the deception analyzer over the deduped landing hosts.
func syntaxStats(hosts []string) SyntaxStats {
	analyzer := urlx.NewDeceptionAnalyzer([]string{
		"acme", "acmetraveltech", "skybooker", "farewell", "transitgo",
		"payroute", "microsoft", "onedrive", "office", "docusign", "excel",
	})
	out := SyntaxStats{}
	for _, host := range hosts {
		out.Domains++
		techniques := analyzer.Analyze(host)
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

// DomainSyntax returns the memoized deceptive-syntax aggregate.
func (r *Run) DomainSyntax() SyntaxStats {
	return r.index().syntax
}

// CloakRow is one row of the evasion-prevalence table.
type CloakRow struct {
	Technique string
	Messages  int
}

// countCloaks tallies one analysis's evasion techniques into counts.
func countCloaks(counts map[string]int, ma *crawlerbox.MessageAnalysis) {
	c := ma.Cloaks
	add := func(name string, present bool) {
		if present {
			counts[name]++
		}
	}
	add("turnstile", c.Turnstile)
	add("recaptcha", c.ReCaptcha)
	add("fingerprint-gate", c.FingerprintGate)
	add("interaction-gate", c.InteractionGate)
	add("delayed-reveal", c.DelayedReveal)
	add("otp-prompt", c.OTPPrompt)
	add("math-challenge", c.MathChallenge)
	add("console-hijack", c.ConsoleHijack)
	add("debugger-timer", c.DebuggerTimer)
	add("hue-rotate", c.HueRotate)
	add("victim-check", c.VictimCheck)
	add("fingerprint-library", c.FingerprintLib)
	add("exfil-httpbin", c.ExfilHTTPBin)
	add("exfil-ipapi", c.ExfilIPAPI)
	add("tokenized-url", c.TokenizedURL)
	add("noise-padding", ma.Parse.NoisePadded)
	add("faulty-qr", ma.Parse.FaultyQR)
}

// cloakRows orders the evasion census by count (desc), then name.
func cloakRows(counts map[string]int) []CloakRow {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	out := make([]CloakRow, 0, len(names))
	for _, n := range names {
		out = append(out, CloakRow{Technique: n, Messages: counts[n]})
	}
	return out
}

// CloakPrevalence counts evasion techniques across active-phish messages.
func (r *Run) CloakPrevalence() []CloakRow {
	return append([]CloakRow(nil), r.index().cloaks...)
}

// BrandRow is one row of the non-targeted impersonation breakdown.
type BrandRow struct {
	Brand   string
	Domains int
}

// knownBrands are the page-title markers of the Section V-B review, checked
// in order (most specific first).
var knownBrands = []string{"MICROSOFT EXCEL", "ONEDRIVE", "OFFICE 365", "DOCUSIGN", "MICROSOFT"}

// brandOfTitle maps an upper-cased page title to its brand bucket.
func brandOfTitle(title string) string {
	for _, k := range knownBrands {
		if strings.Contains(title, k) {
			return k
		}
	}
	return "OTHER"
}

// brandRows orders the brand census by domain count (desc), then name.
func brandRows(counts map[string]int) []BrandRow {
	out := make([]BrandRow, 0, len(counts))
	for b, c := range counts {
		out = append(out, BrandRow{Brand: b, Domains: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domains != out[j].Domains {
			return out[i].Domains > out[j].Domains
		}
		return out[i].Brand < out[j].Brand
	})
	return out
}

// NonTargetedBrands classifies the non-spear active-phish landing pages by
// the brand named in their page titles — the crawl-derived version of the
// paper's Section V-B manual review (Microsoft 44, Excel 20, OneDrive 12,
// Office 365 11, DocuSign 1, others 42).
func (r *Run) NonTargetedBrands() []BrandRow {
	return append([]BrandRow(nil), r.index().brands...)
}

// landingTitle returns the upper-cased <title> of the phishing visit.
func landingTitle(ma *crawlerbox.MessageAnalysis) string {
	for _, v := range ma.Visits {
		if v.Result == nil || v.Result.DOM == nil {
			continue
		}
		for _, t := range htmlxFind(v.Result) {
			return strings.ToUpper(t)
		}
	}
	return ""
}

// TurnstileShare returns the Turnstile and reCAPTCHA shares over the
// credential-harvesting messages (the paper's 74.4% / 24.8%).
func (r *Run) TurnstileShare() (turnstilePct, recaptchaPct float64) {
	c := r.index()
	return c.turnstilePct, c.recaptchaPct
}

// htmlxFind extracts title texts from a visit result.
func htmlxFind(res *browser.Result) []string {
	var out []string
	for _, n := range htmlx.Find(res.DOM, "title") {
		if t := strings.TrimSpace(n.InnerText()); t != "" {
			out = append(out, t)
		}
	}
	return out
}
