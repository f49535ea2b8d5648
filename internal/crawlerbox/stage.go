package crawlerbox

import (
	"context"
	"errors"
	neturl "net/url"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/webnet"
)

// ErrHalt is returned by a Stage to signal that the analysis is complete and
// the remaining stages must be skipped (for example: a message whose only
// payload is a malware download has nothing to crawl, classify, or enrich).
// It is a control-flow sentinel, not a failure — Pipeline.Analyze treats it
// as a clean stop.
var ErrHalt = errors.New("crawlerbox: analysis complete")

// Stage is one step of the CrawlerBox pipeline (the paper's Fig. 1 boxes:
// ingest → parse → crawl → log → enrich → classify). Stages consume and
// produce the shared *MessageAnalysis carried by the Execution; the chain
// can be reordered, replaced, or instrumented via Pipeline.Stages.
//
// A Stage must be safe for concurrent use: one Stage value is shared by
// every worker of AnalyzeStream, so all per-message state belongs on the
// Execution, never on the Stage.
type Stage interface {
	// Name identifies the stage in logs and instrumentation.
	Name() string
	// Run advances the analysis. Returning ErrHalt stops the chain cleanly;
	// any other error aborts the analysis and surfaces to the caller.
	Run(ctx context.Context, ex *Execution) error
}

// Execution is the per-message analysis context threaded through the stage
// chain. It owns everything that must not be shared between concurrent
// analyses: the forked virtual clock, the deterministic seed stream, and
// the MessageAnalysis under construction.
type Execution struct {
	// Pipeline is the owning pipeline (configuration, references, network).
	Pipeline *Pipeline
	// Raw is the RFC 5322 message being analyzed.
	Raw []byte
	// Analysis accumulates the stages' output.
	Analysis *MessageAnalysis
	// Clock is this analysis's private fork of the virtual clock. Browsers
	// created through NewBrowser advance it; the shared world clock never
	// moves during an analysis, so concurrent analyses cannot observe each
	// other's latency or event-loop time.
	Clock *webnet.Clock
	// Trace is this analysis's span buffer (nil when tracing is off — all
	// span operations are no-ops). Browsers created through NewBrowser
	// inherit it so visit and request spans land in the message's timeline.
	Trace *obs.Trace
	// Session is this analysis's resilience session (nil when the fault and
	// recovery layer is disarmed): fault schedule, retry budget, and circuit
	// breakers, all private to the message so outcomes stay independent of
	// what other analyses are running.
	Session *resilience.Session

	seedBase int64
	seedSeq  int64
	// urlVisits is the count of Visits records produced by crawling parsed
	// URLs (as opposed to loading HTML attachments); InteractStage only
	// follows up on those, matching the original monolithic behavior.
	urlVisits int
	// browsers are the browsers attached to this execution, released when
	// the analysis ends; browserBuf holds the first few without a slice
	// allocation.
	browsers   []*browser.Browser
	browserBuf [4]*browser.Browser
}

// nextSeed returns the next seed in this execution's deterministic stream.
// Seeds depend only on (message ID, call ordinal), never on what other
// analyses are running — the fix for the shared p.seed++ counter that made
// results depend on analysis order and raced under concurrency.
func (ex *Execution) nextSeed() int64 {
	ex.seedSeq++
	return mixSeed(ex.seedBase, ex.seedSeq)
}

// NewBrowser builds a crawler instance bound to this execution: seeded from
// the per-message stream, ticking the analysis-local clock, writing into the
// execution's trace buffer and resilience session, and drawing its generator
// from the pipeline's free list. The analysis releases it when it ends.
func (ex *Execution) NewBrowser() *browser.Browser {
	br := ex.Pipeline.NewBrowser(ex.nextSeed())
	if ex.Clock != nil {
		br.Clock = ex.Clock
	}
	br.Trace = ex.Trace
	br.Resilience = ex.Session
	if br.Generators == nil {
		br.Generators = ex.Pipeline.generators
	}
	ex.browsers = append(ex.browsers, br)
	return br
}

// now reads the execution's virtual time.
func (ex *Execution) now() time.Time {
	if ex.Clock != nil {
		return ex.Clock.Now()
	}
	return ex.Pipeline.Net.Clock.Now()
}

// mixSeed is a splitmix64-style finalizer over (base, seq): well-spread
// seeds from small consecutive inputs, with no shared state.
func mixSeed(base, seq int64) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(seq)*0xd1342543de82ef95 + 0x2545f4914f6cdd1d
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// DefaultStages returns the standard chain in the paper's order. Callers
// may copy and splice it (e.g. wrap each stage to time it) and assign the
// result to Pipeline.Stages.
func DefaultStages() []Stage {
	return []Stage{
		ParseStage{},
		CrawlStage{},
		InteractStage{},
		ClassifyStage{},
		CensusStage{},
		EnrichStage{},
	}
}

// ParseStage recursively parses the MIME tree and extracts the crawlable
// surface: URLs (text, HTML, QR codes, PDFs), HTML attachments, archive
// payloads, and OTP codes. Messages with nothing to crawl halt the chain
// with their outcome already decided.
type ParseStage struct{}

// Name implements Stage.
func (ParseStage) Name() string { return "parse" }

// Run implements Stage.
func (ParseStage) Run(_ context.Context, ex *Execution) error {
	parse, err := ex.Pipeline.ParseMessage(ex.Raw)
	if err != nil {
		return err
	}
	ma := ex.Analysis
	ma.Parse = parse
	if parse.ZIPWithHTA {
		ma.Outcome = OutcomeDownload
		return ErrHalt
	}
	if len(parse.URLs) == 0 && len(parse.HTMLAttachments) == 0 {
		ma.Outcome = OutcomeNoResource
		return ErrHalt
	}
	return nil
}

// CrawlStage visits every extracted URL with a fresh browser and loads HTML
// attachments locally (the Section V-B vector), recording one VisitRecord
// per resource.
type CrawlStage struct{}

// Name implements Stage.
func (CrawlStage) Name() string { return "crawl" }

// Run implements Stage.
func (CrawlStage) Run(ctx context.Context, ex *Execution) error {
	ma := ex.Analysis
	for _, u := range ma.Parse.URLs {
		res, err := ex.NewBrowser().Visit(ctx, u.URL)
		ma.Visits = append(ma.Visits, VisitRecord{URL: u.URL, Result: res, Err: err})
	}
	ex.urlVisits = len(ma.Visits)
	for _, att := range ma.Parse.HTMLAttachments {
		res, err := ex.NewBrowser().LoadHTML(ctx, att.Content, att.Filename)
		ma.Visits = append(ma.Visits, VisitRecord{URL: "file:///" + att.Filename, Result: res, Err: err})
	}
	return nil
}

// InteractStage performs the pipeline's automated interaction steps on each
// crawled URL: solving math challenges, entering OTP codes recovered from
// the message, and token-strip probing for tokenized-URL cloaking.
type InteractStage struct{}

// Name implements Stage.
func (InteractStage) Name() string { return "interact" }

// Run implements Stage.
func (InteractStage) Run(ctx context.Context, ex *Execution) error {
	// Snapshot the crawl-produced records: interaction appends follow-up
	// visits, which must not themselves be interacted with.
	for i := 0; i < ex.urlVisits; i++ {
		v := ex.Analysis.Visits[i]
		if v.Err != nil || v.Result == nil || v.Result.DOM == nil {
			continue
		}
		ex.interact(ctx, v)
	}
	return nil
}

// interact runs the gate-specific follow-ups for one primary visit.
func (ex *Execution) interact(ctx context.Context, v VisitRecord) {
	ma := ex.Analysis
	res := v.Result
	// Math challenge: solve the trivial equation with custom code.
	if target, ok := solveMathChallenge(res); ok {
		ma.Cloaks.MathChallenge = true
		next := resolveRef(res.FinalURL, target)
		res2, err2 := ex.NewBrowser().Visit(ctx, next)
		ma.Visits = append(ma.Visits, VisitRecord{URL: next, Result: res2, Err: err2})
	}
	// OTP prompt: try access codes recovered from the message text.
	if pageHasOTPPrompt(res.DOM) {
		ma.Cloaks.OTPPrompt = true
		for _, code := range ma.Parse.OTPCodes {
			next := appendQuery(res.FinalURL, "otp="+code)
			res2, err2 := ex.NewBrowser().Visit(ctx, next)
			ma.Visits = append(ma.Visits, VisitRecord{URL: next, Result: res2, Err: err2})
			if res2 != nil && res2.DOM != nil && htmlx.HasPasswordInput(res2.DOM) {
				break
			}
		}
	}
	// Token-strip probe: visit the bare URL to expose tokenized cloaking.
	if u, perr := neturl.Parse(v.URL); perr == nil && (u.RawQuery != "" || u.Fragment != "") {
		bare := *u
		bare.RawQuery = ""
		bare.Fragment = ""
		res3, err3 := ex.NewBrowser().Visit(ctx, bare.String())
		if err3 == nil && res3 != nil && res3.DOM != nil {
			if htmlx.HasPasswordInput(res.DOM) && !htmlx.HasPasswordInput(res3.DOM) {
				ma.Cloaks.TokenizedURL = true
			}
		}
	}
}

// ClassifyStage derives the message outcome from the crawl results and
// matches active phishing pages against the protected brands' references.
type ClassifyStage struct{}

// Name implements Stage.
func (ClassifyStage) Name() string { return "classify" }

// Run implements Stage.
func (ClassifyStage) Run(_ context.Context, ex *Execution) error {
	ex.Pipeline.classify(ex.Analysis)
	return nil
}

// CensusStage inspects loaded scripts and recorded traffic for the
// Section V-C evasion techniques.
type CensusStage struct{}

// Name implements Stage.
func (CensusStage) Name() string { return "census" }

// Run implements Stage.
func (CensusStage) Run(_ context.Context, ex *Execution) error {
	ex.Pipeline.census(ex.Analysis)
	return nil
}

// EnrichStage joins the landing domain against WHOIS, the certificate
// store, and the passive-DNS background ledger.
type EnrichStage struct{}

// Name implements Stage.
func (EnrichStage) Name() string { return "enrich" }

// Run implements Stage.
func (EnrichStage) Run(_ context.Context, ex *Execution) error {
	ex.Pipeline.enrich(ex.Analysis, ex.now())
	return nil
}
