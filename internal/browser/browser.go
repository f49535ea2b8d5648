package browser

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/minijs"
	"crawlerbox/internal/obs"
	"crawlerbox/internal/resilience"
	"crawlerbox/internal/webnet"
)

// ErrTooManyRedirects indicates the navigation chain exceeded the limit.
var ErrTooManyRedirects = errors.New("browser: too many redirects")

// Browser drives page visits with a given fingerprint profile over the
// simulated internet.
type Browser struct {
	Net     *webnet.Internet
	Profile Profile
	// Clock is the virtual clock this browser reads and advances (Date.now,
	// performance.now, timers, request latency). New sets it to the shared
	// network clock; a corpus runner replaces it with a per-analysis fork so
	// concurrent analyses never advance each other's time.
	Clock *webnet.Clock
	// Trace, when set, records a visit span per navigation and threads
	// itself onto every network request so round trips record child spans.
	// The corpus runner binds it to the analysis's per-message trace.
	Trace *obs.Trace
	// Resilience, when set, is the per-analysis fault/retry session: the
	// browser threads it onto every request (arming webnet's seeded fault
	// injection), retries transient failures with backoff charged to the
	// virtual clock, and honors the per-host circuit breaker. Nil disarms
	// the layer — one attempt per request, exactly the pre-resilience
	// behavior.
	Resilience *resilience.Session
	// ClientIP is the crawler's egress address; its provenance class is a
	// server-side cloaking input.
	ClientIP string
	// MaxRedirects bounds the navigation chain (HTTP + script + meta).
	MaxRedirects int
	// ScriptFuel is the execution budget per script.
	ScriptFuel int64
	// EventLoopWindow is how much virtual time the browser waits for
	// delayed content. Impatient crawlers miss delayed-reveal cloaking.
	EventLoopWindow time.Duration
	// MaxTimerFires bounds event-loop iterations.
	MaxTimerFires int
	// Generators, when set, is the free list the browser takes its random
	// generator from, on its first draw, and Release gives it back to. Nil
	// gives the browser a generator of its own.
	Generators *Generators
	seed       int64
	rng        *rand.Rand // nil until the first draw
	released   bool
	cookies    cookieJar
}

// New returns a browser with sensible crawl defaults. Its random stream is
// the one rand.New(rand.NewSource(seed)) draws.
func New(net *webnet.Internet, profile Profile, clientIP string, seed int64) *Browser {
	return &Browser{
		Net:             net,
		Clock:           net.Clock,
		Profile:         profile,
		ClientIP:        clientIP,
		MaxRedirects:    10,
		ScriptFuel:      400_000,
		EventLoopWindow: 30 * time.Second,
		MaxTimerFires:   60,
		seed:            seed,
	}
}

func (b *Browser) random() float64 {
	if b.rng == nil {
		if b.released {
			panic("browser: random draw after Release")
		}
		b.rng = b.Generators.get(b.seed)
	}
	return b.rng.Float64()
}

// Release gives the browser's random generator back to its free list. A
// browser is done once released: a later draw from its stream (a script
// or an event dispatch) panics rather than draw from a generator another
// browser may hold by then.
func (b *Browser) Release() {
	if b.rng != nil {
		b.Generators.put(b.rng)
		b.rng = nil
	}
	b.released = true
}

// Generators is a bounded free list of idle random generators, about
// 4.9 KB of state each. A browser that draws re-seeds one in place
// instead of allocating its own: (*rand.Rand).Seed gives the same stream
// as a new generator with that seed, so reuse changes no draw. It is a
// channel rather than a sync.Pool, which every GC empties. Safe for
// concurrent use; a nil *Generators allocates every generator.
type Generators struct{ free chan *rand.Rand }

// NewGenerators returns a free list that keeps at most n idle generators.
func NewGenerators(n int) *Generators {
	return &Generators{free: make(chan *rand.Rand, n)}
}

// get returns a generator seeded with seed, reused when one is idle.
func (g *Generators) get(seed int64) *rand.Rand {
	if g != nil {
		select {
		case r := <-g.free:
			r.Seed(seed)
			return r
		default:
		}
	}
	//cblint:ignore determinism generator is seeded from the caller-supplied seed
	return rand.New(rand.NewSource(seed))
}

// put keeps an idle generator unless the free list is full.
func (g *Generators) put(r *rand.Rand) {
	if g == nil {
		return
	}
	select {
	case g.free <- r:
	default:
	}
}

// clock returns the browser's virtual clock, falling back to the shared
// network clock for zero-value Browsers built without New.
func (b *Browser) clock() *webnet.Clock {
	if b.Clock != nil {
		return b.Clock
	}
	return b.Net.Clock
}

// RequestRecord is one network request made during a visit.
type RequestRecord struct {
	URL       string
	Method    string
	Initiator string // document, script, img, iframe, xhr, stylesheet
	Referer   string
	Status    int
	Err       string
}

// page is the per-document execution context. Its script realm (interp)
// exists only once the page runs script, and each browser global and the
// document's wrappers only once a script reaches them; body, head, html,
// start and cookie hold what the realm reads of the document as it was
// created, so a realm built later sees the same.
type page struct {
	br           *Browser
	ctx          context.Context
	url          *neturl.URL
	doc          *htmlx.Node
	body         *htmlx.Node
	head         *htmlx.Node
	html         *htmlx.Node
	start        time.Time // the virtual clock when the document was created
	cookie       string    // the cookie header when the document was created
	interp       *minijs.Interp
	domCache     map[*htmlx.Node]*minijs.Object
	handlers     map[string][]handlerEntry
	timers       []*timer
	nextTimerID  int
	console      []string
	scripts      []string
	errors       []string
	debuggerHits int
	pendingNav   string
	// The browser globals that other globals alias, each built when a
	// script first reaches it (see global).
	navObj      *minijs.Object
	screenObj   *minijs.Object
	locationObj *minijs.Object
	docObj      *minijs.Object
	windowObj   *minijs.Object
	chromeObj   *minijs.Object
	cancelFn    minijs.Value
	referrer    string
	frames      []*htmlx.Node
	rec         *recorder
	depth       int
}

// recorder accumulates request records across the whole visit, plus the
// degradation marker the classifier reads: whether any request in the visit
// exhausted its retries or was short-circuited by an open breaker.
type recorder struct {
	requests []RequestRecord
	degraded bool
}

func (pg *page) host() string { return pg.url.Hostname() }

// context returns the visit's context (Background for zero-value pages).
func (pg *page) context() context.Context {
	if pg.ctx == nil {
		//cblint:ignore ctxflow zero-value pages have no caller context to fall back to
		return context.Background()
	}
	return pg.ctx
}

// Visit navigates to rawURL and returns the fully processed result. The
// context cancels the visit between round trips and event-loop turns; a
// cancelled visit returns the partial result accumulated so far with the
// context's error.
func (b *Browser) Visit(ctx context.Context, rawURL string) (*Result, error) {
	rec := &recorder{}
	span := b.Trace.Start(obs.SpanVisit, "visit "+obs.SanitizeURL(rawURL))
	res, err := b.navigate(ctx, rawURL, "", rec, 0)
	b.finishVisitSpan(span, res, err)
	return res, err
}

// finishVisitSpan annotates and closes a visit span. URL attributes are
// sanitized: final URLs can carry schedule-dependent clearance tokens in
// their query, which must not reach the deterministic trace.
func (b *Browser) finishVisitSpan(span *obs.Span, res *Result, err error) {
	if span == nil {
		return
	}
	if res != nil {
		span.SetAttr("final_url", obs.SanitizeURL(res.FinalURL))
		span.SetAttr("status", strconv.Itoa(res.Status))
		span.SetAttr("requests", strconv.Itoa(len(res.Requests)))
		span.SetAttr("navigations", strconv.Itoa(len(res.Navigations)))
		if res.Degraded {
			span.SetAttr("degraded", "true")
		}
	}
	if err != nil {
		span.SetStatus(obs.StatusError)
		span.SetAttr("error", err.Error())
	}
	span.End()
}

// Result is everything CrawlerBox logs about one crawl.
type Result struct {
	RequestedURL string
	FinalURL     string
	Status       int
	DOM          *htmlx.Node
	Frames       []*htmlx.Node
	HTML         string
	// Screenshot is the rendered page. It is nil until RenderScreenshot
	// renders it: read it through that method.
	Screenshot   *imaging.Image
	Console      []string
	Scripts      []string
	Requests     []RequestRecord
	ScriptErrors []string
	DebuggerHits int
	Navigations  []string
	// Degraded reports that at least one request during the visit gave up
	// after exhausting its retry budget or hitting an open circuit breaker:
	// the rest of the result is whatever evidence was still gathered, and
	// the classifier downgrades such messages to OutcomePartial rather than
	// treating them as fully measured.
	Degraded bool
	// shot is what the screenshot layout reads of the final page, held
	// until DisplayList lays it out; nil when no page loaded.
	shot *shotState
	// display is the final page's display list once laid out.
	display string
}

// DisplayList returns the display list of the final page's screenshot, or
// "" when no page loaded: the paint calls its layout makes, with all their
// arguments, as opaque bytes. The screenshot's pixels are a pure function
// of the list, so results with equal lists have equal screenshots, and a
// caller can key what it derives from the pixels by the list instead. The
// first call lays the page out from the state the visit ended in and
// releases that state; the list is kept for later calls and for every
// render. Like the rest of a Result, it is not safe for concurrent use.
func (r *Result) DisplayList() string {
	if r.shot != nil {
		r.display = r.shot.layout()
		r.shot = nil
	}
	return r.display
}

// RenderScreenshot returns the screenshot of the final page, or nil when no
// page loaded. The first call rasterizes it from the display list, stores
// it in Screenshot, and later calls return the stored image. Most visits
// are never looked at, so a result costs a render only when something
// reads its screenshot.
func (r *Result) RenderScreenshot() *imaging.Image {
	if r.Screenshot == nil {
		if list := r.DisplayList(); list != "" {
			r.Screenshot = newCanvas()
			rasterize(list, r.Screenshot)
		}
	}
	return r.Screenshot
}

// PaintScreenshot returns the screenshot of the final page, or nil when no
// page loaded, and stores no image on r. When RenderScreenshot already
// ran, it returns the stored image. Otherwise it rasterizes the display
// list over every pixel of canvas and returns canvas, or into a new image
// when canvas is nil. A canvas must be shotW×shotH, the size of every
// screenshot; it holds this screenshot until the caller paints another one
// into it. A caller that only encodes screenshots (the evidence spill)
// reuses one canvas across results this way, and a later RenderScreenshot
// still renders the same pixels.
func (r *Result) PaintScreenshot(canvas *imaging.Image) *imaging.Image {
	if r.Screenshot != nil {
		return r.Screenshot
	}
	list := r.DisplayList()
	switch {
	case list == "":
		return nil
	case canvas == nil:
		canvas = newCanvas()
	case canvas.W != shotW || canvas.H != shotH:
		panic(fmt.Sprintf("browser: %dx%d canvas, want %dx%d", canvas.W, canvas.H, shotW, shotH))
	}
	rasterize(list, canvas)
	return canvas
}

func (b *Browser) navigate(ctx context.Context, rawURL, referrer string, rec *recorder, depth int) (*Result, error) {
	current := rawURL
	var navigations []string
	var lastPage *page
	var lastStatus int
	for hop := 0; ; hop++ {
		if err := ctx.Err(); err != nil {
			return partialResult(rawURL, current, navigations, rec, lastPage, lastStatus), err
		}
		if hop > b.MaxRedirects {
			return partialResult(rawURL, current, navigations, rec, lastPage, lastStatus),
				fmt.Errorf("%w: %d hops", ErrTooManyRedirects, hop)
		}
		navigations = append(navigations, current)
		resp, err := b.fetch(ctx, "GET", current, "document", referrer, nil, "", rec)
		if err != nil {
			return partialResult(rawURL, current, navigations, rec, lastPage, lastStatus), err
		}
		lastStatus = resp.Status
		if resp.Status >= 300 && resp.Status < 400 {
			loc := resp.Header("Location")
			if loc == "" {
				break
			}
			referrer = current
			current = resolveAgainst(current, loc)
			continue
		}
		pg, err := b.processDocument(ctx, current, referrer, string(resp.Body), rec, depth)
		if err != nil {
			return partialResult(rawURL, current, navigations, rec, lastPage, lastStatus), err
		}
		lastPage = pg
		if pg.pendingNav != "" {
			referrer = current
			current = resolveAgainst(current, pg.pendingNav)
			continue
		}
		break
	}
	return assembleResult(rawURL, current, navigations, rec, lastPage, lastStatus), nil
}

// LoadHTML processes an HTML document that was opened locally (the HTML
// attachment vector of Section V-B): no initial network fetch, a file://
// base URL, and any navigation or frame loads happen over the network.
func (b *Browser) LoadHTML(ctx context.Context, html, fileName string) (*Result, error) {
	rec := &recorder{}
	base := "file:///" + fileName
	span := b.Trace.Start(obs.SpanVisit, "load "+base)
	res, err := b.loadHTML(ctx, base, html, rec)
	b.finishVisitSpan(span, res, err)
	return res, err
}

// loadHTML is LoadHTML without the visit span.
func (b *Browser) loadHTML(ctx context.Context, base, html string, rec *recorder) (*Result, error) {
	pg, err := b.processDocument(ctx, base, "", html, rec, 0)
	if err != nil {
		return nil, err
	}
	if pg.pendingNav != "" {
		// The attachment redirected the window to an external URL.
		return b.navigate(ctx, resolveAgainst(base, pg.pendingNav), "", rec, 0)
	}
	return assembleResult(base, base, []string{base}, rec, pg, 200), nil
}

// processDocument parses and executes one document. depth tracks nested
// frame navigation so iframe chains terminate.
func (b *Browser) processDocument(ctx context.Context, pageURL, referrer, html string, rec *recorder, depth int) (*page, error) {
	u, err := neturl.Parse(pageURL)
	if err != nil {
		return nil, fmt.Errorf("browser: parsing page URL %q: %w", pageURL, err)
	}
	pg := &page{
		br:       b,
		ctx:      ctx,
		url:      u,
		doc:      htmlx.Parse(html),
		start:    b.clock().Now(),
		referrer: referrer,
		rec:      rec,
		depth:    depth,
	}
	pg.body = pg.findOrCreate("body")
	pg.head = pg.findOrCreate("head")
	pg.html = pg.findOrCreate("html")
	pg.cookie = pg.cookieHeader()

	// Subresources in document order.
	for _, link := range htmlx.ExtractLinks(pg.doc) {
		if link.Inline {
			continue
		}
		switch link.Tag {
		case "img":
			pg.fetchSubresource(link.URL, "img")
		case "link":
			pg.fetchSubresource(link.URL, "stylesheet")
		case "iframe", "frame":
			pg.loadFrame(link.URL)
		case "meta":
			if pg.pendingNav == "" {
				pg.pendingNav = link.URL
			}
		}
	}

	// Scripts in document order.
	for _, script := range htmlx.ExtractScripts(pg.doc) {
		if script.Src != "" {
			pg.runExternalScript(script.Src)
		} else if strings.TrimSpace(script.Source) != "" {
			pg.runScript(script.Source, "inline")
		}
		if pg.pendingNav != "" {
			break
		}
	}

	// Human-ish input activity, if the profile generates any.
	if pg.pendingNav == "" && b.Profile.MouseMovement {
		for i := 0; i < 5; i++ {
			pg.dispatchEvent(nil, "mousemove", b.Profile.TrustedEvents)
		}
		pg.dispatchEvent(nil, "scroll", b.Profile.TrustedEvents)
	}

	// Delayed content.
	if pg.pendingNav == "" {
		pg.runEventLoop()
	}
	return pg, nil
}

// runScript executes one script, recording its source for the census. It
// is the only way into the interpreter, so the first script a page runs
// builds its realm.
func (pg *page) runScript(src, kind string) {
	pg.scripts = append(pg.scripts, src)
	if pg.interp == nil {
		pg.setupEnvironment()
	}
	pg.interp.AddFuel(pg.br.ScriptFuel)
	if _, err := pg.interp.Eval(src); err != nil {
		pg.errors = append(pg.errors, kind+": "+err.Error())
	}
	pg.checkNavigation()
}

// runExternalScript fetches and executes a script URL.
func (pg *page) runExternalScript(ref string) {
	resp, err := pg.request("GET", ref, "script", nil, "")
	if err != nil || resp.Status != 200 {
		return
	}
	pg.runScript(string(resp.Body), "external:"+ref)
}

// fetchSubresource fetches a passive resource (image, stylesheet).
func (pg *page) fetchSubresource(ref, kind string) {
	_, _ = pg.request("GET", ref, kind, nil, "")
}

// loadFrame loads an iframe document. Up to a bounded depth, frames are
// fully processed — scripts run, their own subresources load, their
// redirects are followed — exactly as a real browser treats them. Beyond
// the depth cap the frame is fetched and parsed statically.
func (pg *page) loadFrame(ref string) {
	const maxFrameDepth = 2
	abs := pg.resolveRef(ref)
	if pg.depth >= maxFrameDepth {
		resp, err := pg.request("GET", ref, "iframe", nil, "")
		if err != nil || resp.Status != 200 {
			return
		}
		pg.frames = append(pg.frames, htmlx.Parse(string(resp.Body)))
		return
	}
	res, err := pg.br.navigate(pg.context(), abs, pg.url.String(), pg.rec, pg.depth+1)
	if err != nil || res == nil || res.DOM == nil {
		return
	}
	pg.frames = append(pg.frames, res.DOM)
	pg.frames = append(pg.frames, res.Frames...)
	pg.scripts = append(pg.scripts, res.Scripts...)
	pg.console = append(pg.console, res.Console...)
}

// resolveRef resolves a possibly relative reference against the page URL.
func (pg *page) resolveRef(ref string) string {
	return resolveAgainst(pg.url.String(), ref)
}

func resolveAgainst(base, ref string) string {
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

// fetch performs one network request with the profile's header surface.
func (b *Browser) fetch(ctx context.Context, method, rawURL, initiator, referrer string,
	extraHeaders map[string]string, body string, rec *recorder) (*webnet.Response, error) {
	u, err := neturl.Parse(rawURL)
	if err != nil {
		recAppend(rec, RequestRecord{URL: rawURL, Method: method, Initiator: initiator, Err: err.Error()})
		return nil, fmt.Errorf("browser: parsing URL %q: %w", rawURL, err)
	}
	if u.Scheme == "file" {
		recAppend(rec, RequestRecord{URL: rawURL, Method: method, Initiator: initiator, Status: 200})
		return &webnet.Response{Status: 200}, nil
	}
	headers := map[string]string{
		"User-Agent": b.Profile.UserAgent,
		"Accept":     "text/html,application/xhtml+xml,*/*;q=0.8",
	}
	if b.Profile.SendAcceptLanguage {
		headers["Accept-Language"] = strings.Join(b.Profile.Languages, ",")
	}
	if b.Profile.InterceptionCacheQuirk {
		headers["Cache-Control"] = "no-cache"
		headers["Pragma"] = "no-cache"
	}
	if referrer != "" && !strings.HasPrefix(referrer, "file:") {
		headers["Referer"] = referrer
	}
	if cookie := b.cookieFor(u.Hostname()); cookie != "" {
		headers["Cookie"] = cookie
	}
	for k, v := range extraHeaders {
		headers[k] = v
	}
	req := &webnet.Request{
		Method:         method,
		Host:           u.Hostname(),
		Path:           pathOrRoot(u),
		RawQuery:       u.RawQuery,
		Headers:        headers,
		Body:           body,
		ClientIP:       b.ClientIP,
		TLSFingerprint: b.Profile.TLSFingerprint,
		Clock:          b.clock(),
		Trace:          b.Trace,
		Faults:         b.Resilience,
	}
	resp, degraded, err := b.doResilient(ctx, req)
	if degraded && rec != nil {
		rec.degraded = true
	}
	record := RequestRecord{
		URL: rawURL, Method: method, Initiator: initiator,
		Referer: headers["Referer"],
	}
	if err != nil {
		record.Err = err.Error()
		recAppend(rec, record)
		return nil, err
	}
	record.Status = resp.Status
	recAppend(rec, record)
	if sc := resp.Header("Set-Cookie"); sc != "" && b.Profile.CookiesEnabled {
		b.setCookie(u.Hostname(), sc)
	}
	return resp, nil
}

// doResilient performs one round trip under the resilience session's
// policy: the per-host breaker gates the attempt, transient failures
// (NXDOMAIN, unreachable, timeout, reset, 5xx) are retried with exponential
// backoff and deterministic jitter charged to the visit's virtual clock,
// and every wait records a retry span. The degraded return is true when the
// operation gave up — retries exhausted, stage budget spent, or breaker
// open — in which case the caller marks the visit partially measured. With
// no session armed it is exactly one b.Net.Do call.
func (b *Browser) doResilient(ctx context.Context, req *webnet.Request) (resp *webnet.Response, degraded bool, err error) {
	s := b.Resilience
	if s == nil {
		resp, err = b.Net.Do(ctx, req)
		return resp, false, err
	}
	host := req.Host
	if !s.Allow(host) {
		b.recordShortCircuit(host)
		return nil, true, fmt.Errorf("browser: skipping %q: %w", host, resilience.ErrCircuitOpen)
	}
	attempt := 1
	resp, err = b.Net.Do(ctx, req)
	for {
		reason := retryReason(resp, err)
		if reason == "" {
			if err == nil {
				s.ReportSuccess(host)
				if attempt > 1 {
					s.RecordRecovered()
				}
			}
			return resp, false, err
		}
		s.ReportFailure(host)
		if ctx.Err() != nil {
			return resp, false, err
		}
		if !s.Allow(host) {
			// Our own failures opened the circuit mid-retry: give up with
			// whatever the last attempt produced.
			b.recordShortCircuit(host)
			s.RecordExhausted()
			if err != nil {
				return nil, true, &resilience.ExhaustedError{Attempts: attempt, Err: err}
			}
			return resp, true, nil
		}
		d, ok := s.NextBackoff(attempt)
		if !ok {
			s.RecordExhausted()
			if err != nil {
				return nil, true, &resilience.ExhaustedError{Attempts: attempt, Err: err}
			}
			// A retried-out 5xx still carries a response; the visit keeps
			// it as partial evidence.
			return resp, true, nil
		}
		sp := b.Trace.StartAt(obs.SpanRetry, "retry "+host, b.clock().Now())
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		sp.SetAttr("reason", reason)
		sp.SetAttr("backoff_ns", strconv.FormatInt(int64(d), 10))
		b.clock().Advance(d)
		sp.EndAt(b.clock().Now())
		attempt++
		resp, err = b.Net.Do(ctx, req)
	}
}

// recordShortCircuit drops a zero-length retry span marking a request the
// open breaker refused to send, so the fault-recovery table can count
// short-circuits from the trace alone.
func (b *Browser) recordShortCircuit(host string) {
	sp := b.Trace.StartAt(obs.SpanRetry, "breaker "+host, b.clock().Now())
	sp.SetAttr("reason", "breaker-open")
	sp.SetStatus(obs.StatusError)
	sp.EndAt(b.clock().Now())
}

// retryReason classifies a round-trip result as retryable ("" = final): a
// transient network error or a 5xx overload answer.
func retryReason(resp *webnet.Response, err error) string {
	switch {
	case err == nil:
		if resp != nil && resp.Status >= 500 {
			return "5xx"
		}
		return ""
	case errors.Is(err, webnet.ErrNXDomain):
		return "nxdomain"
	case errors.Is(err, webnet.ErrReset):
		return "reset"
	case errors.Is(err, webnet.ErrTimeout):
		return "timeout"
	case errors.Is(err, webnet.ErrUnreachable):
		return "unreachable"
	default:
		return ""
	}
}

func pathOrRoot(u *neturl.URL) string {
	if u.Path == "" {
		return "/"
	}
	return u.Path
}

func recAppend(rec *recorder, r RequestRecord) {
	if rec != nil {
		rec.requests = append(rec.requests, r)
	}
}

// cookieJar stores cookies per host: host -> name -> value.
type cookieJar map[string]map[string]string

func (b *Browser) jar() cookieJar {
	if b.cookies == nil {
		b.cookies = cookieJar{}
	}
	return b.cookies
}

func (b *Browser) setCookie(host, setCookie string) {
	kv := strings.SplitN(strings.SplitN(setCookie, ";", 2)[0], "=", 2)
	if len(kv) != 2 {
		return
	}
	j := b.jar()
	if j[host] == nil {
		j[host] = map[string]string{}
	}
	j[host][strings.TrimSpace(kv[0])] = strings.TrimSpace(kv[1])
}

func (b *Browser) cookieFor(host string) string {
	if !b.Profile.CookiesEnabled {
		return ""
	}
	m := b.jar()[host]
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, "; ")
}

func (pg *page) cookieHeader() string {
	return pg.br.cookieFor(pg.host())
}

// testHookAssemble, when set by a test, sees every page as its result is
// assembled.
var testHookAssemble func(pg *page, r *Result)

func partialResult(requested, current string, navs []string, rec *recorder, pg *page, status int) *Result {
	return assembleResult(requested, current, navs, rec, pg, status)
}

func assembleResult(requested, final string, navs []string, rec *recorder, pg *page, status int) *Result {
	r := &Result{
		RequestedURL: requested,
		FinalURL:     final,
		Status:       status,
		Navigations:  navs,
	}
	if rec != nil {
		r.Requests = rec.requests
		r.Degraded = rec.degraded
	}
	if pg != nil {
		r.DOM = pg.doc
		r.Frames = pg.frames
		r.HTML = htmlx.Render(pg.doc)
		r.Console = pg.console
		r.Scripts = pg.scripts
		r.ScriptErrors = pg.errors
		r.DebuggerHits = pg.debuggerHits
		r.shot = newShotState(pg)
	}
	if testHookAssemble != nil {
		testHookAssemble(pg, r)
	}
	return r
}
