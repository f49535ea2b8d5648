package browser

import (
	"sort"
	"strings"
	"time"

	"crawlerbox/internal/minijs"
	"crawlerbox/internal/webnet"
)

// timer is one scheduled callback in the page's virtual event loop.
type timer struct {
	id        int
	due       time.Time
	fn        minijs.Value
	interval  time.Duration
	repeating bool
	cancelled bool
}

type handlerEntry struct {
	nodeKey any // *htmlx.Node or nil for document/window level
	fn      minijs.Value
}

// setupEnvironment builds the page's script realm: an interpreter whose
// browser-shaped globals (window, navigator, screen, location, document,
// timers, console, performance, XMLHttpRequest, Intl and the driver
// artifacts, see global) are built when a script first names one.
// runScript calls it before the page's first script runs. Nothing a script
// can observe has changed since the document was created: the DOM changes
// only under script, and the clock and cookie jar readings come from the
// page's creation.
func (pg *page) setupEnvironment() {
	ip := minijs.New(pg.br.ScriptFuel)
	pg.interp = ip

	// Virtual clock feeds Date.now().
	ip.Now = func() float64 {
		return float64(pg.br.clock().Now().UnixMilli())
	}
	ip.Random = pg.br.random
	ip.OnDebugger = func() { pg.debuggerHits++ }
	ip.Resolve = pg.global
	if testHookRealm != nil {
		testHookRealm(pg)
	}
}

// testHookRealm, when set by a test, sees every realm as soon as it is
// built.
var testHookRealm func(pg *page)

// global builds the browser global name for the page's interpreter (its
// minijs Resolve hook), or reports false when the page has no such global.
// A script reaches the DOM only through document, so a document built
// when first named holds what one built with the realm would have. The
// objects that other globals alias are built once (navigator, screen,
// location, document, window, chrome, the timer cancel function), so the
// aliases keep their identity: window.navigator === navigator,
// self === window, document.location === location.
func (pg *page) global(name string) (minijs.Value, bool) {
	build, ok := _browserGlobals[name]
	if !ok {
		return minijs.Undefined, false
	}
	return build(pg)
}

// globalBuilder builds one browser global for a page, or reports false when
// the page's profile has no such global.
type globalBuilder func(pg *page) (minijs.Value, bool)

// _browserGlobals holds every browser global a realm can build, by name:
// the one list of the globals a page supplies. init fills it, since the
// builders reach global again (a document's script runs in the realm).
var _browserGlobals map[string]globalBuilder

func init() {
	_browserGlobals = map[string]globalBuilder{
		"console":     objectGlobal((*page).consoleObject),
		"navigator":   objectGlobal((*page).navigator),
		"screen":      objectGlobal((*page).screen),
		"Intl":        objectGlobal((*page).intlObject),
		"location":    objectGlobal((*page).location),
		"performance": objectGlobal((*page).performanceObject),
		"document":    objectGlobal((*page).document),
		"window":      objectGlobal((*page).window),
		"self":        objectGlobal((*page).window),
		"__timezoneOffset": func(pg *page) (minijs.Value, bool) {
			return minijs.Number(float64(pg.br.Profile.TimezoneOffset)), true
		},
		"setTimeout": func(pg *page) (minijs.Value, bool) {
			return minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
				return pg.schedule(args, false), nil
			}), true
		},
		"setInterval": func(pg *page) (minijs.Value, bool) {
			return minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
				return pg.schedule(args, true), nil
			}), true
		},
		"clearTimeout":  func(pg *page) (minijs.Value, bool) { return pg.cancelTimer(), true },
		"clearInterval": func(pg *page) (minijs.Value, bool) { return pg.cancelTimer(), true },
		// Synchronous semantics; async callbacks fire inline.
		"XMLHttpRequest": func(pg *page) (minijs.Value, bool) { return minijs.NewHostFunc(pg.xhrConstructor), true },
		// alert/prompt/confirm record and return neutral values.
		"alert": func(pg *page) (minijs.Value, bool) {
			return minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
				if len(args) > 0 {
					pg.console = append(pg.console, "alert: "+args[0].ToString())
				}
				return minijs.Undefined, nil
			}), true
		},
		"prompt": func(*page) (minijs.Value, bool) {
			return minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
				return minijs.Null, nil
			}), true
		},
		"confirm": func(*page) (minijs.Value, bool) {
			return minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
				return minijs.False, nil
			}), true
		},
		"chrome": func(pg *page) (minijs.Value, bool) {
			if !pg.br.Profile.ChromeObject {
				return minijs.Undefined, false
			}
			return minijs.ObjectValue(pg.chrome()), true
		},
		// ChromeDriver/Selenium artifacts: detectors probe for these globals.
		"cdc_adoQpoasnfa76pfcZLmcfl_Array": func(pg *page) (minijs.Value, bool) {
			if !pg.br.Profile.CDPArtifacts {
				return minijs.Undefined, false
			}
			return minijs.ObjectValue(minijs.NewArray()), true
		},
		"cdc_adoQpoasnfa76pfcZLmcfl_Promise": func(pg *page) (minijs.Value, bool) {
			if !pg.br.Profile.CDPArtifacts {
				return minijs.Undefined, false
			}
			return minijs.ObjectValue(minijs.NewObject()), true
		},
		// A driver-binary leftover that survives variable renaming: present in
		// every ChromeDriver-based stack regardless of stealth patching.
		"__driverEvaluateHook": func(pg *page) (minijs.Value, bool) {
			if !pg.br.Profile.ChromedriverArtifacts {
				return minijs.Undefined, false
			}
			return minijs.True, true
		},
	}
}

// objectGlobal adapts a page's memoized object builder to a globalBuilder.
func objectGlobal(build func(pg *page) *minijs.Object) globalBuilder {
	return func(pg *page) (minijs.Value, bool) { return minijs.ObjectValue(build(pg)), true }
}

// consoleObject builds console: a plain object so scripts can hijack its
// methods, a corpus behavior seen on 295+ messages.
func (pg *page) consoleObject() *minijs.Object {
	console := minijs.NewObject()
	console.Grow(consoleProps)
	for _, level := range []string{"log", "warn", "error", "info", "debug"} {
		lv := level
		console.Set(lv, minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.ToString()
			}
			pg.console = append(pg.console, lv+": "+strings.Join(parts, " "))
			return minijs.Undefined, nil
		}))
	}
	return console
}

// navigator returns the page's navigator, built on first use.
func (pg *page) navigator() *minijs.Object {
	if pg.navObj != nil {
		return pg.navObj
	}
	prof := pg.br.Profile
	nav := minijs.NewObject()
	nav.Grow(navigatorProps)
	nav.Set("userAgent", minijs.String(prof.UserAgent))
	nav.Set("webdriver", minijs.Bool(prof.WebdriverFlag))
	nav.Set("language", minijs.String(prof.Language))
	langs := make([]minijs.Value, len(prof.Languages))
	for i, l := range prof.Languages {
		langs[i] = minijs.String(l)
	}
	nav.Set("languages", minijs.ObjectValue(minijs.NewArray(langs...)))
	nav.Set("platform", minijs.String(prof.Platform))
	nav.Set("cookieEnabled", minijs.Bool(prof.CookiesEnabled))
	plugins := make([]minijs.Value, max(0, prof.PluginCount))
	names := prof.PluginNames
	for i := range plugins {
		p := minijs.NewObject()
		name := "Plugin " + string(rune('A'+i%26))
		if i < len(names) {
			name = names[i]
		}
		p.Set("name", minijs.String(name))
		plugins[i] = minijs.ObjectValue(p)
	}
	nav.Set("plugins", minijs.ObjectValue(minijs.NewArray(plugins...)))
	nav.Set("hardwareConcurrency", minijs.Number(8))
	pg.navObj = nav
	return nav
}

// screen returns the page's screen, built on first use.
func (pg *page) screen() *minijs.Object {
	if pg.screenObj != nil {
		return pg.screenObj
	}
	prof := pg.br.Profile
	screen := minijs.NewObject()
	screen.Grow(screenProps)
	screen.Set("width", minijs.Number(float64(prof.ScreenW)))
	screen.Set("height", minijs.Number(float64(prof.ScreenH)))
	screen.Set("availWidth", minijs.Number(float64(prof.ScreenW)))
	screen.Set("availHeight", minijs.Number(float64(max(0, prof.ScreenH-40))))
	screen.Set("colorDepth", minijs.Number(24))
	pg.screenObj = screen
	return screen
}

// intlObject builds Intl for
// Intl.DateTimeFormat().resolvedOptions().timeZone — the fingerprint
// probe found in 15+ corpus messages.
func (pg *page) intlObject() *minijs.Object {
	prof := pg.br.Profile
	intl := minijs.NewObject()
	intl.Set("DateTimeFormat", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		dtf := minijs.NewObject()
		dtf.Set("resolvedOptions", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
			opts := minijs.NewObject()
			opts.Set("timeZone", minijs.String(prof.Timezone))
			opts.Set("locale", minijs.String(prof.Language))
			return minijs.ObjectValue(opts), nil
		}))
		return minijs.ObjectValue(dtf), nil
	}))
	return intl
}

// location returns the page's location, built on first use.
func (pg *page) location() *minijs.Object {
	if pg.locationObj == nil {
		pg.locationObj = pg.buildLocation()
	}
	return pg.locationObj
}

// performanceObject builds performance. performance.now() is the virtual
// wall-clock plus CPU time derived from the interpreter fuel spent so far,
// scaled by the VM timing skew. On physical hardware (skew 1.0) the
// readings look organic; in a VM they are coarse and stretched — the
// red-pill timing channel. Counting fuel spent rather than fuel left keeps
// the fuel granted to each script, timer and handler out of the reading,
// so readings never decrease.
func (pg *page) performanceObject() *minijs.Object {
	prof := pg.br.Profile
	perf := minijs.NewObject()
	perf.Grow(performanceProps)
	startWall := pg.start
	perf.Set("now", minijs.NewHostFunc(func(interp *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		wallMs := float64(pg.br.clock().Now().Sub(startWall).Microseconds()) / 1000
		cpuMs := float64(interp.FuelSpent()) / 5000
		skew := prof.VMTimingSkew
		if skew <= 0 {
			skew = 1
		}
		v := wallMs + cpuMs*skew
		if skew != 1 {
			// VM clocks additionally quantize coarsely.
			v = float64(int(v/10)) * 10
		}
		return minijs.Number(v), nil
	}))
	return perf
}

// cancelTimer returns the one function behind clearTimeout and
// clearInterval, built on first use.
func (pg *page) cancelTimer() minijs.Value {
	if pg.cancelFn.Kind() == minijs.KindObject {
		return pg.cancelFn
	}
	pg.cancelFn = minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) > 0 {
			id := int(args[0].ToNumber())
			for _, t := range pg.timers {
				if t.id == id {
					t.cancelled = true
				}
			}
		}
		return minijs.Undefined, nil
	})
	return pg.cancelFn
}

// document returns the page's document, built on first use.
func (pg *page) document() *minijs.Object {
	if pg.docObj == nil {
		pg.docObj = pg.documentObject()
	}
	return pg.docObj
}

// chrome returns the page's chrome object, built on first use.
func (pg *page) chrome() *minijs.Object {
	if pg.chromeObj == nil {
		pg.chromeObj = minijs.NewObject()
		pg.chromeObj.Set("runtime", minijs.ObjectValue(minijs.NewObject()))
	}
	return pg.chromeObj
}

// window returns the page's window, built on first use: it aliases the
// main globals, and scripts also write to it.
func (pg *page) window() *minijs.Object {
	if pg.windowObj != nil {
		return pg.windowObj
	}
	prof := pg.br.Profile
	window := minijs.NewObject()
	window.Grow(windowProps + countTrue(prof.ChromeObject, prof.CDPArtifacts, prof.ChromedriverArtifacts))
	window.Set("navigator", minijs.ObjectValue(pg.navigator()))
	window.Set("screen", minijs.ObjectValue(pg.screen()))
	window.Set("location", minijs.ObjectValue(pg.location()))
	window.Set("document", minijs.ObjectValue(pg.document()))
	window.Set("innerWidth", minijs.Number(float64(prof.ScreenW)))
	window.Set("innerHeight", minijs.Number(float64(max(0, prof.ScreenH-120))))
	window.Set("addEventListener", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			pg.addHandler(nil, args[0].ToString(), args[1])
		}
		return minijs.Undefined, nil
	}))
	if prof.ChromeObject {
		window.Set("chrome", minijs.ObjectValue(pg.chrome()))
	}
	if prof.CDPArtifacts {
		window.Set("__webdriver_evaluate", minijs.True)
	}
	if prof.ChromedriverArtifacts {
		window.Set("$chrome_asyncScriptInfo", minijs.True)
	}
	pg.windowObj = window
	return window
}

// countTrue returns how many of bs are true.
func countTrue(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// buildLocation constructs the location object for the page URL.
func (pg *page) buildLocation() *minijs.Object {
	loc := minijs.NewObject()
	loc.Grow(locationProps)
	loc.Set("href", minijs.String(pg.url.String()))
	loc.Set("protocol", minijs.String(pg.url.Scheme+":"))
	loc.Set("hostname", minijs.String(pg.url.Hostname()))
	loc.Set("host", minijs.String(pg.url.Host))
	loc.Set("pathname", minijs.String(pg.url.Path))
	loc.Set("search", minijs.String(queryString(pg.url.RawQuery)))
	loc.Set("hash", minijs.String(fragmentString(pg.url.Fragment)))
	loc.Set("origin", minijs.String(pg.url.Scheme+"://"+pg.url.Host))
	navigate := minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) > 0 {
			pg.pendingNav = args[0].ToString()
		}
		return minijs.Undefined, nil
	})
	loc.Set("assign", navigate)
	loc.Set("replace", navigate)
	loc.Set("reload", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		pg.pendingNav = pg.url.String()
		return minijs.Undefined, nil
	}))
	return loc
}

func queryString(raw string) string {
	if raw == "" {
		return ""
	}
	return "?" + raw
}

func fragmentString(frag string) string {
	if frag == "" {
		return ""
	}
	return "#" + frag
}

// schedule registers a timer callback.
func (pg *page) schedule(args []minijs.Value, repeating bool) minijs.Value {
	if len(args) == 0 {
		return minijs.Number(0)
	}
	delay := time.Duration(0)
	if len(args) > 1 {
		ms := args[1].ToNumber()
		if ms > 0 {
			delay = time.Duration(ms * float64(time.Millisecond))
		}
	}
	pg.nextTimerID++
	t := &timer{
		id:        pg.nextTimerID,
		due:       pg.br.clock().Now().Add(delay),
		fn:        args[0],
		interval:  delay,
		repeating: repeating,
	}
	pg.timers = append(pg.timers, t)
	return minijs.Number(float64(t.id))
}

// runEventLoop fires due timers in virtual time until the loop drains, the
// wait window is exceeded, a navigation is requested, the fire cap hits, or
// the visit's context is cancelled.
func (pg *page) runEventLoop() {
	deadline := pg.br.clock().Now().Add(pg.br.EventLoopWindow)
	fires := 0
	for fires < pg.br.MaxTimerFires && pg.pendingNav == "" && pg.context().Err() == nil {
		var next *timer
		for _, t := range pg.timers {
			if t.cancelled {
				continue
			}
			if next == nil || t.due.Before(next.due) {
				next = t
			}
		}
		if next == nil || next.due.After(deadline) {
			return
		}
		pg.br.clock().Set(next.due)
		if next.repeating {
			interval := next.interval
			if interval <= 0 {
				interval = time.Millisecond
			}
			next.due = next.due.Add(interval)
		} else {
			next.cancelled = true
		}
		pg.interp.AddFuel(pg.br.ScriptFuel / 4)
		if _, err := pg.interp.CallFunction(next.fn, minijs.Undefined, nil); err != nil {
			pg.errors = append(pg.errors, "timer: "+err.Error())
		}
		pg.checkNavigation()
		fires++
	}
}

// addHandler registers an event handler.
func (pg *page) addHandler(nodeKey any, eventType string, fn minijs.Value) {
	if pg.handlers == nil {
		pg.handlers = map[string][]handlerEntry{}
	}
	eventType = strings.ToLower(eventType)
	pg.handlers[eventType] = append(pg.handlers[eventType], handlerEntry{nodeKey: nodeKey, fn: fn})
}

// dispatchEvent fires handlers for an event type: node-specific handlers
// for the target plus document/window-level handlers (bubble phase). The
// pointer position is drawn whether or not a handler runs, so the
// browser's random stream does not depend on the page's handlers; the
// event object is built only for a handler.
func (pg *page) dispatchEvent(nodeKey any, eventType string, trusted bool) {
	eventType = strings.ToLower(eventType)
	x, y := pg.br.random()*640, pg.br.random()*480
	var event *minijs.Object
	entries := append([]handlerEntry{}, pg.handlers[eventType]...)
	for _, h := range entries {
		if h.nodeKey != nil && h.nodeKey != nodeKey {
			continue
		}
		if event == nil {
			event = minijs.NewObject()
			event.Grow(eventProps)
			event.Set("type", minijs.String(eventType))
			event.Set("isTrusted", minijs.Bool(trusted))
			event.Set("clientX", minijs.Number(x))
			event.Set("clientY", minijs.Number(y))
			event.Set("preventDefault", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
				return minijs.Undefined, nil
			}))
		}
		pg.interp.AddFuel(pg.br.ScriptFuel / 8)
		if _, err := pg.interp.CallFunction(h.fn, minijs.Undefined, []minijs.Value{minijs.ObjectValue(event)}); err != nil {
			pg.errors = append(pg.errors, "event "+eventType+": "+err.Error())
		}
	}
	pg.checkNavigation()
}

// checkNavigation detects navigation requested through property writes:
// location.href = ..., window.location = ..., document.location = ...
// A location or window that no script has reached is unchanged, and a page
// without a realm has run no script at all.
func (pg *page) checkNavigation() {
	if pg.pendingNav != "" {
		return
	}
	current := pg.url.String()
	if pg.locationObj != nil {
		if href := pg.locationObj.Get("href"); href.ToString() != current {
			pg.pendingNav = href.ToString()
			return
		}
	}
	if pg.windowObj != nil {
		if v := pg.windowObj.Get("location"); v.Kind() == minijs.KindString && v.ToString() != current {
			pg.pendingNav = v.ToString()
		}
	}
}

// xhrConstructor implements `new XMLHttpRequest()`.
func (pg *page) xhrConstructor(_ *minijs.Interp, this minijs.Value, _ []minijs.Value) (minijs.Value, error) {
	obj := this.Object()
	if obj == nil {
		obj = minijs.NewObject()
	}
	var method, target string
	reqHeaders := map[string]string{}
	obj.Grow(xhrProps)
	obj.Set("readyState", minijs.Number(0))
	obj.Set("status", minijs.Number(0))
	obj.Set("responseText", minijs.String(""))
	obj.Set("open", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			method = strings.ToUpper(args[0].ToString())
			target = args[1].ToString()
		}
		obj.Set("readyState", minijs.Number(1))
		return minijs.Undefined, nil
	}))
	obj.Set("setRequestHeader", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			reqHeaders[args[0].ToString()] = args[1].ToString()
		}
		return minijs.Undefined, nil
	}))
	obj.Set("send", minijs.NewHostFunc(func(interp *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		body := ""
		if len(args) > 0 && !args[0].IsNullish() {
			body = args[0].ToString()
		}
		resp, _ := pg.request(method, target, "xhr", reqHeaders, body)
		status := 0
		text := ""
		if resp != nil {
			status = resp.Status
			text = string(resp.Body)
		}
		obj.Set("status", minijs.Number(float64(status)))
		obj.Set("responseText", minijs.String(text))
		obj.Set("readyState", minijs.Number(4))
		if cb := obj.Get("onreadystatechange"); cb.Kind() == minijs.KindObject && cb.Object().Callable() {
			if _, err := interp.CallFunction(cb, minijs.ObjectValue(obj), nil); err != nil {
				pg.errors = append(pg.errors, "xhr callback: "+err.Error())
			}
		}
		if cb := obj.Get("onload"); cb.Kind() == minijs.KindObject && cb.Object().Callable() {
			if _, err := interp.CallFunction(cb, minijs.ObjectValue(obj), nil); err != nil {
				pg.errors = append(pg.errors, "xhr onload: "+err.Error())
			}
		}
		return minijs.Undefined, nil
	}))
	return minijs.ObjectValue(obj), nil
}

// sortTimersForTest orders timers by id (test helper determinism).
func (pg *page) sortTimersForTest() {
	sort.Slice(pg.timers, func(i, j int) bool { return pg.timers[i].id < pg.timers[j].id })
}

var _ = (*page).sortTimersForTest

// request is the page-scoped HTTP helper used by XHR and subresources.
func (pg *page) request(method, ref, initiator string, extraHeaders map[string]string, body string) (*webnet.Response, error) {
	abs := pg.resolveRef(ref)
	return pg.br.fetch(pg.context(), method, abs, initiator, pg.url.String(), extraHeaders, body, pg.rec)
}
