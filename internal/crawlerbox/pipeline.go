package crawlerbox

import (
	"context"
	"errors"
	"fmt"
	neturl "net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/urlx"
	"crawlerbox/internal/webnet"
	"crawlerbox/internal/whois"
)

// ReferencePage is one protected login page the classifier matches against.
type ReferencePage struct {
	Brand string
	Sig   imaging.Signature
}

// Pipeline is the CrawlerBox analysis pipeline, an explicit chain of stages
// (Parse → Crawl → Interact → Classify → Census → Enrich). The crawler
// component is pluggable (the paper stresses this modularity); NewBrowser
// supplies a fresh instance per visit so cookie state never leaks between
// analyses, and the stage chain itself can be reordered or extended via
// Stages. A Pipeline is safe for concurrent Analyze calls.
type Pipeline struct {
	Net   *webnet.Internet
	Whois *whois.Registry
	// NewBrowser returns the crawler for one message analysis.
	NewBrowser func(seed int64) *browser.Browser
	// References are the brands' legitimate login-page signatures.
	References []ReferencePage
	// Matcher holds the fuzzy-hash thresholds.
	Matcher imaging.FuzzyMatcher
	// OCRMinScore tunes the OCR glyph matcher (0 = default).
	OCRMinScore float64
	// Stages overrides the analysis chain; nil means DefaultStages().
	Stages []Stage
	// Obs, when non-nil, enables the deterministic observability layer:
	// every Analyze records a per-message trace (root message span, one
	// child span per stage, visit/request spans underneath) on the
	// analysis's virtual clock fork, and feeds the shared metrics registry.
	// Export via Obs.WriteJSONL / Obs.Metrics.WriteProm after the run.
	Obs *obs.Observer
	// Resilience, when non-nil, arms the deterministic fault-and-recovery
	// layer (DESIGN.md §11): every Analyze gets a per-message
	// resilience.Session seeded from spec.ID that drives seeded fault
	// injection in webnet, retry-with-backoff on the analysis's virtual
	// clock, and the per-host circuit breaker. Sessions are per-analysis —
	// never shared across messages — so fault schedules and breaker states
	// depend only on each message's own seed and request order, keeping
	// corpus runs byte-identical at any worker count. Nil reproduces the
	// resilience-free behavior exactly.
	Resilience *resilience.Policy

	// seed feeds browsers created outside a corpus run (AddReference, the
	// legacy AnalyzeMessage entry point). Atomic so stray concurrent use is
	// merely order-dependent, never a data race; corpus runs derive seeds
	// from the message ID instead and never touch it.
	seed atomic.Int64
}

// New returns a pipeline using a NotABot crawler on a mobile egress IP.
func New(net *webnet.Internet, registry *whois.Registry) *Pipeline {
	p := &Pipeline{
		Net:     net,
		Whois:   registry,
		Matcher: imaging.DefaultMatcher(),
	}
	p.NewBrowser = func(seed int64) *browser.Browser {
		// The egress IP is derived from the seed, not drawn from the shared
		// allocation counter: a counter hands out addresses in scheduling
		// order, which perturbs IP-echoing responses across worker counts.
		return browser.New(net, browser.NotABot(), net.SeededIP(webnet.IPMobile, seed), seed)
	}
	return p
}

func (p *Pipeline) ocrMinScore() float64 {
	if p.OCRMinScore > 0 {
		return p.OCRMinScore
	}
	return 0.9
}

// AddReference registers a protected login page by visiting it under the
// caller's context and signing its screenshot.
func (p *Pipeline) AddReference(ctx context.Context, brand, loginURL string) error {
	br := p.newBrowser()
	res, err := br.Visit(ctx, loginURL)
	if err != nil {
		return err
	}
	p.References = append(p.References, ReferencePage{Brand: brand, Sig: imaging.Sign(res.Screenshot)})
	return nil
}

// AddReferences registers every brand's login page (brand name → login
// URL) in sorted-name order. Each reference visit draws the next pipeline
// seed, so a fixed order keeps the signed references identical across
// runs and callers.
func (p *Pipeline) AddReferences(ctx context.Context, loginURLs map[string]string) error {
	brands := make([]string, 0, len(loginURLs))
	for b := range loginURLs {
		brands = append(brands, b)
	}
	sort.Strings(brands)
	for _, b := range brands {
		if err := p.AddReference(ctx, b, loginURLs[b]); err != nil {
			return fmt.Errorf("crawlerbox: reference %s: %w", b, err)
		}
	}
	return nil
}

// nextSeed draws from the pipeline-level seed counter (non-corpus paths).
func (p *Pipeline) nextSeed() int64 { return p.seed.Add(1) }

func (p *Pipeline) newBrowser() *browser.Browser {
	return p.NewBrowser(p.nextSeed())
}

// Outcome is the disposition of one analyzed message (the Section V
// categories).
type Outcome int

// Message dispositions.
const (
	OutcomeNoResource Outcome = iota + 1
	OutcomeError
	OutcomeInteraction
	OutcomeDownload
	OutcomeActivePhish
	OutcomeCloaked
	// OutcomePartial marks a gracefully degraded analysis: at least one
	// visit gave up after exhausting its resilience retries (or hitting an
	// open circuit breaker), but other evidence — a rendered DOM from
	// another visit or a partially loaded page — was still gathered. The
	// message is neither fully measured nor a total loss; only the armed
	// resilience layer (Pipeline.Resilience) can produce it.
	OutcomePartial
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeNoResource:
		return "no-web-resource"
	case OutcomeError:
		return "error-page"
	case OutcomeInteraction:
		return "interaction-required"
	case OutcomeDownload:
		return "file-download"
	case OutcomeActivePhish:
		return "active-phishing"
	case OutcomeCloaked:
		return "cloaked-benign"
	case OutcomePartial:
		return "partial-evidence"
	default:
		return "unknown"
	}
}

// VisitRecord is one crawled URL with its result.
type VisitRecord struct {
	URL    string
	Result *browser.Result
	Err    error
}

// LandingInfo is the enrichment bundle for the landing domain.
type LandingInfo struct {
	URL         string
	Host        string
	Registrable string
	TLD         string
	IP          string
	// Banner is the Shodan-style service banner of the landing IP.
	Banner string
	Whois  *whois.Record
	Cert   *webnet.Certificate
	// DNS30DayTotal / DNSMaxDaily summarize passive-DNS volume over the
	// 30 days before analysis (the Umbrella join).
	DNS30DayTotal int
	DNSMaxDaily   int
}

// CloakCensus records which evasion techniques were observed for a message.
type CloakCensus struct {
	Turnstile        bool
	ReCaptcha        bool
	FingerprintGate  bool
	InteractionGate  bool
	DelayedReveal    bool
	OTPPrompt        bool
	MathChallenge    bool
	ConsoleHijack    bool
	DebuggerTimer    bool
	DevtoolsBlocking bool
	HueRotate        bool
	VictimCheck      bool
	FingerprintLib   bool
	ExfilHTTPBin     bool
	ExfilIPAPI       bool
	TokenizedURL     bool
}

// Flags returns the names of the observed evasion techniques in fixed
// declaration order — a stable vocabulary for span attributes and metric
// labels, independent of how the census was populated.
func (c *CloakCensus) Flags() []string {
	var out []string
	for _, kv := range []struct {
		name string
		on   bool
	}{
		{"turnstile", c.Turnstile}, {"recaptcha", c.ReCaptcha},
		{"fingerprint-gate", c.FingerprintGate}, {"interaction-gate", c.InteractionGate},
		{"delayed-reveal", c.DelayedReveal}, {"otp-prompt", c.OTPPrompt},
		{"math-challenge", c.MathChallenge}, {"console-hijack", c.ConsoleHijack},
		{"debugger-timer", c.DebuggerTimer}, {"devtools-blocking", c.DevtoolsBlocking},
		{"hue-rotate", c.HueRotate}, {"victim-check", c.VictimCheck},
		{"fingerprint-lib", c.FingerprintLib}, {"exfil-httpbin", c.ExfilHTTPBin},
		{"exfil-ipapi", c.ExfilIPAPI}, {"tokenized-url", c.TokenizedURL},
	} {
		if kv.on {
			out = append(out, kv.name)
		}
	}
	return out
}

// ErrorKind distinguishes why a message landed in OutcomeError.
type ErrorKind int

// Error classes for OutcomeError messages.
const (
	// ErrorNone: the message did not land in OutcomeError.
	ErrorNone ErrorKind = iota
	// ErrorNetwork: every failed visit died at the network level (NXDOMAIN,
	// unreachable, timeout) — the infrastructure is gone, typically a
	// takedown or a burned domain.
	ErrorNetwork
	// ErrorContent: a server answered but served a broken resource (HTTP
	// error status or an unparseable document).
	ErrorContent
)

// String names the error kind.
func (k ErrorKind) String() string {
	switch k {
	case ErrorNetwork:
		return "network"
	case ErrorContent:
		return "content"
	default:
		return "none"
	}
}

// MessageAnalysis is everything CrawlerBox logs for one message.
type MessageAnalysis struct {
	Parse   *ParseResult
	Visits  []VisitRecord
	Outcome Outcome
	// ErrorKind classifies OutcomeError messages as network-dead versus
	// content-broken (ErrorNone otherwise).
	ErrorKind  ErrorKind
	SpearPhish bool
	Brand      string
	Landing    *LandingInfo
	Cloaks     CloakCensus
	// Facts are the per-visit adjudication facts distilled by the Classify
	// stage — non-nil (possibly empty) exactly when classification ran, nil
	// for analyses the chain halted earlier (no-resource, download). They
	// survive evidence spilling, so Adjudicate(Facts) reproduces Outcome
	// and ErrorKind from storage without the bulky visit records.
	Facts       []VisitFact
	HotLoadsRef bool // page hot-loads assets from the impersonated brand
	AnalyzedAt  time.Time
	// Evidence addresses this analysis's spilled visit records in an
	// evidence store when SpillEvidence ran (Visits is nil afterwards).
	// The zero handle means the evidence is still in RAM on Visits.
	Evidence evstore.Handle
	// Probes holds differential-cloaking observations when DiffProbeStage
	// is in the chain.
	Probes []*DifferentialProbe
}

// MessageSpec identifies one message for analysis.
type MessageSpec struct {
	// Raw is the RFC 5322 message bytes.
	Raw []byte
	// ID seeds the message's deterministic RNG stream. Corpus runners pass
	// the message index so results are independent of scheduling order; a
	// zero ID is valid (it still yields a well-mixed stream).
	ID int64
	// At is the virtual analysis time. When zero, the analysis forks the
	// world clock at its current reading.
	At time.Time
}

// AnalyzeMessage runs the full pipeline for one raw message with a seed
// drawn from the pipeline counter — the serial, order-dependent entry
// point. Corpus runs use Analyze/AnalyzeCorpus with explicit MessageSpecs.
func (p *Pipeline) AnalyzeMessage(raw []byte) (*MessageAnalysis, error) {
	//cblint:ignore ctxflow AnalyzeMessage is the documented no-cancellation serial wrapper around Analyze
	return p.Analyze(context.Background(), MessageSpec{Raw: raw, ID: p.nextSeed()})
}

// Analyze runs the stage chain over one message. Each call gets a private
// Execution: a fork of the virtual clock and a seed stream keyed by
// spec.ID, so concurrent calls neither race nor influence each other's
// results. The context cancels the analysis between stages and round trips.
func (p *Pipeline) Analyze(ctx context.Context, spec MessageSpec) (*MessageAnalysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	clock := p.Net.Clock.Fork()
	if !spec.At.IsZero() {
		clock = webnet.NewClock(spec.At)
	}
	var ses *resilience.Session
	if p.Resilience != nil {
		var metrics *obs.Registry
		if p.Obs != nil {
			metrics = p.Obs.Metrics
		}
		ses = resilience.NewSession(p.Resilience, spec.ID, clock, metrics)
	}
	ex := &Execution{
		Pipeline: p,
		Raw:      spec.Raw,
		Clock:    clock,
		Analysis: &MessageAnalysis{AnalyzedAt: clock.Now()},
		Trace:    p.Obs.NewTrace(spec.ID, clock),
		Session:  ses,
		seedBase: spec.ID,
	}
	root := ex.Trace.Start(obs.SpanMessage, "message "+strconv.FormatInt(spec.ID, 10))
	ma, err := p.runStages(ctx, ex)
	p.finishMessage(ex, root, ma, err)
	return ma, err
}

// runStages drives the stage chain, recording one child span and one
// stage-latency observation per Stage.Run.
func (p *Pipeline) runStages(ctx context.Context, ex *Execution) (*MessageAnalysis, error) {
	for _, st := range p.stages() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each stage starts with a full backoff budget: retries exhausted
		// while crawling must not starve the interaction follow-ups.
		ex.Session.ResetBudget()
		sp := ex.Trace.Start(obs.SpanStage, st.Name())
		err := st.Run(ctx, ex)
		halted := errors.Is(err, ErrHalt)
		if err != nil && !halted {
			sp.SetStatus(obs.StatusError)
			sp.SetAttr("error", err.Error())
		}
		if halted {
			sp.SetAttr("halt", "true")
		}
		sp.End()
		p.observeStage(st.Name(), sp)
		if err != nil && !halted {
			return nil, err
		}
		if halted {
			break
		}
	}
	return ex.Analysis, nil
}

// observeStage feeds the per-stage latency histogram and run counter.
func (p *Pipeline) observeStage(name string, sp *obs.Span) {
	if p.Obs == nil || sp == nil {
		return
	}
	p.Obs.Metrics.Observe("crawlerbox_stage_ns", float64(sp.Duration()), "stage", name)
	p.Obs.Metrics.Inc("crawlerbox_stage_runs_total", "stage", name)
}

// finishMessage annotates the root span with the outcome taxonomy (the
// stable attribute mapping of every Outcome and ErrorKind string), feeds
// the message metrics, and hands the completed trace to the observer.
func (p *Pipeline) finishMessage(ex *Execution, root *obs.Span, ma *MessageAnalysis, err error) {
	if p.Obs == nil {
		return
	}
	m := p.Obs.Metrics
	switch {
	case err != nil:
		root.SetStatus(obs.StatusError)
		root.SetAttr("error", err.Error())
		m.Inc("crawlerbox_messages_total", "outcome", "failed")
	default:
		root.SetStatus(outcomeSpanStatus(ma.Outcome))
		root.SetAttr("outcome", ma.Outcome.String())
		root.SetAttr("error_kind", ma.ErrorKind.String())
		root.SetAttr("visits", strconv.Itoa(len(ma.Visits)))
		if ma.SpearPhish {
			root.SetAttr("spear_brand", ma.Brand)
		}
		flags := ma.Cloaks.Flags()
		if len(flags) > 0 {
			root.SetAttr("cloaks", strings.Join(flags, ","))
		}
		m.Inc("crawlerbox_messages_total", "outcome", ma.Outcome.String())
		if ma.Outcome == OutcomeError {
			m.Inc("crawlerbox_error_kind_total", "kind", ma.ErrorKind.String())
		}
		if ma.SpearPhish {
			m.Inc("crawlerbox_spearphish_total", "brand", ma.Brand)
		}
		for _, f := range flags {
			m.Inc("crawlerbox_cloak_total", "kind", f)
		}
		m.Add("crawlerbox_visits_total", float64(len(ma.Visits)))
	}
	root.End()
	p.Obs.Collect(ex.Trace)
}

// outcomeSpanStatus maps a message outcome to its root-span status: only
// OutcomeError (dead or broken infrastructure) marks the analysis failed;
// every other disposition is a successful measurement.
func outcomeSpanStatus(o Outcome) string {
	if o == OutcomeError {
		return obs.StatusError
	}
	return obs.StatusOK
}

func (p *Pipeline) stages() []Stage {
	if len(p.Stages) > 0 {
		return p.Stages
	}
	return DefaultStages()
}

// Evidence-fact classes: the checkable category one visit contributes to
// adjudication. The vocabulary is part of the tracestore's on-disk format,
// so values must stay stable across versions.
const (
	// FactNetError marks a visit that died at the network level.
	FactNetError = "network-error"
	// FactContentError marks a server that answered with a broken resource.
	FactContentError = "content-error"
	// FactPhishForm marks a rendered page carrying a credential form.
	FactPhishForm = "credential-form"
	// FactInteraction marks an unsolvable interaction gate.
	FactInteraction = "interaction-gate"
	// FactBenign marks a rendered page with none of the above.
	FactBenign = "benign-content"
)

// VisitFact is the adjudication evidence distilled from one visit: the
// checklist item an analyst ticks, and the only input Adjudicate consumes.
// Facts are tiny and survive evidence spilling, so a stored trace can be
// re-adjudicated without re-crawling or re-loading bulky visit records.
type VisitFact struct {
	// URL is the visited URL (sanitized of query and fragment, which can
	// carry schedule-dependent tokens).
	URL string `json:"url"`
	// Host is the visited URL's hostname ("" for file:/// loads).
	Host string `json:"host,omitempty"`
	// Class is the visit's evidence class (Fact* constants).
	Class string `json:"class"`
	// Status is the final HTTP status (0 when no response arrived).
	Status int `json:"status,omitempty"`
	// HasDOM reports whether the visit produced a rendered document.
	HasDOM bool `json:"has_dom,omitempty"`
	// Degraded reports whether the resilience layer gave up on the visit
	// (retries exhausted or breaker open) or the result was marked degraded.
	Degraded bool `json:"degraded,omitempty"`
}

// FactOf distills one visit record into its adjudication fact. The class
// cases mirror the historical classify switch exactly, so Adjudicate over
// the facts reproduces the live classification byte-for-byte.
func FactOf(v *VisitRecord) VisitFact {
	f := VisitFact{
		URL:      obs.SanitizeURL(v.URL),
		Degraded: errIsDegraded(v.Err) || (v.Result != nil && v.Result.Degraded),
		HasDOM:   v.Result != nil && v.Result.DOM != nil,
	}
	if u, err := neturl.Parse(v.URL); err == nil {
		f.Host = u.Hostname()
	}
	if v.Result != nil {
		f.Status = v.Result.Status
	}
	switch {
	case v.Err != nil && errIsNetwork(v.Err):
		f.Class = FactNetError
	case v.Err != nil || v.Result == nil || v.Result.DOM == nil:
		f.Class = FactContentError
	case v.Result.Status >= 400:
		f.Class = FactContentError
	case hasPhishForm(v.Result):
		f.Class = FactPhishForm
	case pageRequiresInteraction(v.Result.DOM):
		f.Class = FactInteraction
	default:
		f.Class = FactBenign
	}
	return f
}

// Adjudicate derives a message outcome from stored visit facts alone — the
// pure core of the Classify stage, shared by the live pipeline and the
// tracestore's re-adjudication path so the two can never drift. Definitive
// phish/interaction findings win; a degraded analysis that still gathered a
// DOM lands in partial-evidence; error kinds split network-dead from
// content-broken. No facts at all (nothing was crawled, yet classification
// ran) is an error disposition, matching the live pipeline.
func Adjudicate(facts []VisitFact) (Outcome, ErrorKind) {
	var sawPhish, sawInteraction, sawBenign bool
	var sawNetError, sawContentError bool
	var sawDegraded, hasEvidence bool
	for i := range facts {
		f := &facts[i]
		if f.Degraded {
			sawDegraded = true
		}
		if f.HasDOM {
			hasEvidence = true
		}
		switch f.Class {
		case FactNetError:
			sawNetError = true
		case FactContentError:
			sawContentError = true
		case FactPhishForm:
			sawPhish = true
		case FactInteraction:
			sawInteraction = true
		default:
			sawBenign = true
		}
	}
	sawError := sawNetError || sawContentError
	var outcome Outcome
	switch {
	case sawPhish:
		outcome = OutcomeActivePhish
	case sawInteraction:
		outcome = OutcomeInteraction
	case sawDegraded && hasEvidence:
		outcome = OutcomePartial
	case sawError && !sawBenign:
		outcome = OutcomeError
	case sawBenign:
		outcome = OutcomeCloaked
	default:
		outcome = OutcomeError
	}
	if outcome == OutcomeError {
		if sawNetError && !sawContentError {
			return outcome, ErrorNetwork
		}
		return outcome, ErrorContent
	}
	return outcome, ErrorNone
}

// classify distills each visit into its adjudication fact, derives the
// outcome through the pure Adjudicate core, and runs the spear-phishing
// screenshot match (the one classification step that needs live evidence
// rather than facts). The facts are retained on the analysis — they are the
// verdict evidence the tracestore persists and re-adjudicates from.
func (p *Pipeline) classify(ma *MessageAnalysis) {
	facts := make([]VisitFact, len(ma.Visits))
	var phishVisit *VisitRecord
	for i := range ma.Visits {
		facts[i] = FactOf(&ma.Visits[i])
		if facts[i].Class == FactPhishForm && phishVisit == nil {
			phishVisit = &ma.Visits[i]
		}
	}
	ma.Facts = facts
	ma.Outcome, ma.ErrorKind = Adjudicate(facts)
	if ma.Outcome == OutcomeActivePhish {
		p.classifySpearPhish(ma, phishVisit)
	}
}

// classifySpearPhish matches the phishing screenshot against the protected
// brands' reference pages.
func (p *Pipeline) classifySpearPhish(ma *MessageAnalysis, v *VisitRecord) {
	if v.Result.Screenshot == nil {
		return
	}
	sig := imaging.Sign(v.Result.Screenshot)
	for _, ref := range p.References {
		if ok, _, _ := p.Matcher.Match(sig, ref.Sig); ok {
			ma.SpearPhish = true
			ma.Brand = ref.Brand
			break
		}
	}
}

// hasPhishForm reports a credential form in the document or its frames.
func hasPhishForm(res *browser.Result) bool {
	if htmlx.HasPasswordInput(res.DOM) {
		return true
	}
	for _, f := range res.Frames {
		if htmlx.HasPasswordInput(f) {
			return true
		}
	}
	return false
}

// pageRequiresInteraction spots unsolvable gates: traditional image
// CAPTCHAs, shared-document services, or challenge prompts.
func pageRequiresInteraction(doc *htmlx.Node) bool {
	text := strings.ToLower(doc.InnerText())
	for _, marker := range []string{
		"select all images", "shared a document", "view shared file",
		"enter the access code", "verify you are human", "i'm not a robot",
		"checking your browser",
	} {
		if strings.Contains(text, marker) {
			return true
		}
	}
	return false
}

func pageHasOTPPrompt(doc *htmlx.Node) bool {
	if htmlx.FindByID(doc, "otp") != nil {
		return true
	}
	return strings.Contains(strings.ToLower(doc.InnerText()), "access code")
}

var _mathRe = regexp.MustCompile(`what is (\d+) \+ (\d+)`)
var _redirectRe = regexp.MustCompile(`location\.href = "([^"]+)"`)

// solveMathChallenge recognizes the custom challenge-response gate, solves
// the equation, and returns the redirect target.
func solveMathChallenge(res *browser.Result) (string, bool) {
	text := strings.ToLower(res.DOM.InnerText())
	m := _mathRe.FindStringSubmatch(text)
	if m == nil {
		return "", false
	}
	a, _ := strconv.Atoi(m[1])
	b, _ := strconv.Atoi(m[2])
	_ = a + b // the gate compares client-side; we follow its redirect
	for _, script := range res.Scripts {
		if r := _redirectRe.FindStringSubmatch(script); r != nil {
			return r[1], true
		}
	}
	return "", false
}

// census inspects loaded scripts and traffic for evasion techniques.
func (p *Pipeline) census(ma *MessageAnalysis) {
	for _, v := range ma.Visits {
		if v.Result == nil {
			continue
		}
		for _, script := range v.Result.Scripts {
			censusScript(&ma.Cloaks, script)
		}
		for _, req := range v.Result.Requests {
			censusRequest(&ma.Cloaks, req.URL)
		}
		if v.Result.DOM != nil && pageHasOTPPrompt(v.Result.DOM) {
			ma.Cloaks.OTPPrompt = true
		}
	}
}

func censusScript(c *CloakCensus, script string) {
	switch {
	case strings.Contains(script, "__turnstile"):
		c.Turnstile = true
	}
	if strings.Contains(script, "console.log = noop") ||
		strings.Contains(script, "console.log = function") {
		c.ConsoleHijack = true
	}
	if strings.Contains(script, "debugger;") {
		c.DebuggerTimer = true
	}
	if strings.Contains(script, "style.filter = atob(") {
		c.HueRotate = true
	}
	if strings.Contains(script, "location.hash") && strings.Contains(script, "/check?email=") {
		c.VictimCheck = true
	}
	if strings.Contains(script, "Intl.DateTimeFormat") &&
		strings.Contains(script, "navigator.language") &&
		strings.Contains(script, "atob(") {
		c.FingerprintGate = true
	}
	if strings.Contains(script, `addEventListener("mousemove"`) && strings.Contains(script, "isTrusted") {
		c.InteractionGate = true
	}
	if strings.Contains(script, "setTimeout") && strings.Contains(script, "setInnerHTML(atob(") {
		c.DelayedReveal = true
	}
	if strings.Contains(script, `addEventListener("contextmenu"`) {
		c.DevtoolsBlocking = true
	}
	if strings.Contains(script, "__botd") || strings.Contains(script, "__fpjs") {
		c.FingerprintLib = true
	}
	if strings.Contains(script, "/score") && strings.Contains(script, "no-plugins") {
		c.ReCaptcha = true
	}
	if strings.Contains(script, "__mathCheck") {
		c.MathChallenge = true
	}
	if strings.Contains(script, "__otpCheck") {
		c.OTPPrompt = true
	}
}

func censusRequest(c *CloakCensus, url string) {
	lower := strings.ToLower(url)
	switch {
	case strings.Contains(lower, "/challenge.js"):
		c.Turnstile = true
	case strings.Contains(lower, "/api.js"):
		c.ReCaptcha = true
	case strings.HasSuffix(lower, "/ip") || strings.Contains(lower, "httpbin"):
		c.ExfilHTTPBin = true
	case strings.Contains(lower, "/json?ip=") || strings.Contains(lower, "ipapi"):
		c.ExfilIPAPI = true
	case strings.Contains(lower, "/botd.js"):
		c.FingerprintLib = true
	}
}

// enrich joins the landing domain against WHOIS, the certificate store, and
// the passive-DNS background ledger. It reads volumes from the injected
// background aggregates only — never the live query log — so the measured
// victim traffic excludes the crawler's own resolutions and is identical no
// matter what else the pipeline crawled, serially or concurrently.
func (p *Pipeline) enrich(ma *MessageAnalysis, at time.Time) {
	var landing *VisitRecord
	for i := range ma.Visits {
		v := &ma.Visits[i]
		if v.Result != nil && v.Result.DOM != nil && hasPhishForm(v.Result) {
			landing = v
			break
		}
	}
	if landing == nil {
		return
	}
	u, err := neturl.Parse(landing.Result.FinalURL)
	if err != nil || u.Hostname() == "" {
		return
	}
	host := u.Hostname()
	d := urlx.ParseDomain(host)
	info := &LandingInfo{
		URL:         landing.Result.FinalURL,
		Host:        host,
		Registrable: d.Registrable,
		TLD:         d.TLD,
	}
	if ip, ok := p.Net.LookupDNS(host); ok {
		info.IP = ip
		if banner, ok := p.Net.BannerOf(ip); ok {
			info.Banner = banner
		}
	}
	if p.Whois != nil {
		if rec, err := p.Whois.Lookup(d.Registrable); err == nil {
			info.Whois = &rec
		}
	}
	if cert, ok := p.Net.CertFor(host); ok {
		info.Cert = cert
	}
	total, maxDaily := p.Net.BackgroundQueryVolume(host, 30*24*time.Hour, at)
	info.DNS30DayTotal = total
	info.DNSMaxDaily = maxDaily
	ma.Landing = info
}

// parseHTML statically extracts crawlable URLs from an HTML body.
func parseHTML(html string) []string {
	var out []string
	for _, link := range htmlx.ExtractLinks(htmlx.Parse(html)) {
		if link.Inline {
			continue
		}
		if strings.HasPrefix(link.URL, "http://") || strings.HasPrefix(link.URL, "https://") {
			out = append(out, link.URL)
		}
	}
	return out
}

// appendQuery adds a key=value pair to a URL's query string, inserting it
// before any fragment: "https://h/p#frag" becomes "https://h/p?kv#frag",
// not the corrupt "https://h/p#frag?kv" (a fragment swallows everything
// after the '#', so the server would never have seen the parameter).
func appendQuery(rawURL, kv string) string {
	base, frag, hasFrag := strings.Cut(rawURL, "#")
	sep := "?"
	if strings.Contains(base, "?") {
		sep = "&"
	}
	if hasFrag {
		return base + sep + kv + "#" + frag
	}
	return base + sep + kv
}

func resolveRef(base, ref string) string {
	bu, err := neturl.Parse(base)
	if err != nil {
		return ref
	}
	ru, err := neturl.Parse(ref)
	if err != nil {
		return ref
	}
	return bu.ResolveReference(ru).String()
}

// errIsNetwork reports network-level failures: the visit died before any
// server produced content. classify uses it to split OutcomeError into
// ErrorNetwork (dead infrastructure) and ErrorContent (broken pages).
// ExhaustedError unwraps to its final transient error, so retried-out
// visits classify by what actually failed; a breaker short-circuit counts
// as network-level too (the host was failing at the network layer).
func errIsNetwork(err error) bool {
	return errors.Is(err, webnet.ErrNXDomain) ||
		errors.Is(err, webnet.ErrUnreachable) ||
		errors.Is(err, webnet.ErrTimeout) ||
		errors.Is(err, webnet.ErrReset) ||
		errors.Is(err, resilience.ErrCircuitOpen)
}

// errIsDegraded reports visits the resilience layer gave up on: retries
// exhausted or a request refused by an open circuit breaker.
func errIsDegraded(err error) bool {
	return errors.Is(err, resilience.ErrExhausted) ||
		errors.Is(err, resilience.ErrCircuitOpen)
}
