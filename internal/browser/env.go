package browser

import (
	"sort"
	"strings"
	"time"

	"crawlerbox/internal/htmlx"
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

// setupEnvironment builds the page's script realm: an interpreter with the
// browser-shaped global environment (window, navigator, screen, location,
// document, timers, console, performance, XMLHttpRequest, and Intl).
// runScript calls it before the page's first script runs. Nothing a script
// can observe has changed since the document was created: the DOM changes
// only under script, and the clock and cookie jar readings come from the
// page's creation.
func (pg *page) setupEnvironment() {
	ip := minijs.New(pg.br.ScriptFuel)
	pg.interp = ip
	pg.domCache = map[*htmlx.Node]*minijs.Object{}
	prof := pg.br.Profile

	// Virtual clock feeds Date.now().
	ip.Now = func() float64 {
		return float64(pg.br.clock().Now().UnixMilli())
	}
	ip.Random = pg.br.random
	ip.OnDebugger = func() { pg.debuggerHits++ }

	// console: plain object so scripts can hijack its methods, a corpus
	// behavior seen on 295+ messages.
	console := minijs.NewObject()
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
	ip.SetGlobal("console", minijs.ObjectValue(console))

	// navigator.
	nav := minijs.NewObject()
	nav.Set("userAgent", minijs.String(prof.UserAgent))
	nav.Set("webdriver", minijs.Bool(prof.WebdriverFlag))
	nav.Set("language", minijs.String(prof.Language))
	langs := minijs.NewArray()
	for _, l := range prof.Languages {
		langs.Elems = append(langs.Elems, minijs.String(l))
	}
	nav.Set("languages", minijs.ObjectValue(langs))
	nav.Set("platform", minijs.String(prof.Platform))
	nav.Set("cookieEnabled", minijs.Bool(prof.CookiesEnabled))
	plugins := minijs.NewArray()
	names := prof.PluginNames
	for i := 0; i < prof.PluginCount; i++ {
		p := minijs.NewObject()
		name := "Plugin " + string(rune('A'+i%26))
		if i < len(names) {
			name = names[i]
		}
		p.Set("name", minijs.String(name))
		plugins.Elems = append(plugins.Elems, minijs.ObjectValue(p))
	}
	nav.Set("plugins", minijs.ObjectValue(plugins))
	nav.Set("hardwareConcurrency", minijs.Number(8))
	ip.SetGlobal("navigator", minijs.ObjectValue(nav))

	// screen.
	screen := minijs.NewObject()
	screen.Set("width", minijs.Number(float64(prof.ScreenW)))
	screen.Set("height", minijs.Number(float64(prof.ScreenH)))
	screen.Set("availWidth", minijs.Number(float64(prof.ScreenW)))
	screen.Set("availHeight", minijs.Number(float64(max(0, prof.ScreenH-40))))
	screen.Set("colorDepth", minijs.Number(24))
	ip.SetGlobal("screen", minijs.ObjectValue(screen))

	// Intl.DateTimeFormat().resolvedOptions().timeZone — the fingerprint
	// probe found in 15+ corpus messages.
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
	ip.SetGlobal("Intl", minijs.ObjectValue(intl))
	ip.SetGlobal("__timezoneOffset", minijs.Number(float64(prof.TimezoneOffset)))

	// location.
	pg.locationObj = pg.buildLocation()
	ip.SetGlobal("location", minijs.ObjectValue(pg.locationObj))

	// performance.now(): virtual wall-clock plus CPU time derived from
	// the interpreter fuel spent so far, scaled by the VM timing skew. On
	// physical hardware (skew 1.0) the readings look organic; in a VM they
	// are coarse and stretched — the red-pill timing channel. Counting fuel
	// spent rather than fuel left keeps the fuel granted to each script,
	// timer and handler out of the reading, so readings never decrease.
	perf := minijs.NewObject()
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
	ip.SetGlobal("performance", minijs.ObjectValue(perf))

	// Timers.
	ip.SetGlobal("setTimeout", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		return pg.schedule(args, false), nil
	}))
	ip.SetGlobal("setInterval", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		return pg.schedule(args, true), nil
	}))
	cancel := minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
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
	ip.SetGlobal("clearTimeout", cancel)
	ip.SetGlobal("clearInterval", cancel)

	// XMLHttpRequest (synchronous semantics; async callbacks fire inline).
	ip.SetGlobal("XMLHttpRequest", minijs.NewHostFunc(pg.xhrConstructor))

	// alert/prompt/confirm record and return neutral values.
	ip.SetGlobal("alert", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) > 0 {
			pg.console = append(pg.console, "alert: "+args[0].ToString())
		}
		return minijs.Undefined, nil
	}))
	ip.SetGlobal("prompt", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.Null, nil
	}))
	ip.SetGlobal("confirm", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, _ []minijs.Value) (minijs.Value, error) {
		return minijs.False, nil
	}))

	// document must exist before window so window.document is set.
	docObj := pg.documentObject()
	ip.SetGlobal("document", minijs.ObjectValue(docObj))

	// window: aliases the main globals; scripts also write to it.
	window := minijs.NewObject()
	window.Set("navigator", minijs.ObjectValue(nav))
	window.Set("screen", minijs.ObjectValue(screen))
	window.Set("location", minijs.ObjectValue(pg.locationObj))
	window.Set("document", minijs.ObjectValue(docObj))
	window.Set("innerWidth", minijs.Number(float64(prof.ScreenW)))
	window.Set("innerHeight", minijs.Number(float64(max(0, prof.ScreenH-120))))
	window.Set("addEventListener", minijs.NewHostFunc(func(_ *minijs.Interp, _ minijs.Value, args []minijs.Value) (minijs.Value, error) {
		if len(args) >= 2 {
			pg.addHandler(nil, args[0].ToString(), args[1])
		}
		return minijs.Undefined, nil
	}))
	if prof.ChromeObject {
		chrome := minijs.NewObject()
		chrome.Set("runtime", minijs.ObjectValue(minijs.NewObject()))
		window.Set("chrome", minijs.ObjectValue(chrome))
		ip.SetGlobal("chrome", minijs.ObjectValue(chrome))
	}
	pg.windowObj = window
	ip.SetGlobal("window", minijs.ObjectValue(window))
	ip.SetGlobal("self", minijs.ObjectValue(window))

	// ChromeDriver/Selenium artifacts: detectors probe for these globals.
	if prof.CDPArtifacts {
		ip.SetGlobal("cdc_adoQpoasnfa76pfcZLmcfl_Array", minijs.ObjectValue(minijs.NewArray()))
		ip.SetGlobal("cdc_adoQpoasnfa76pfcZLmcfl_Promise", minijs.ObjectValue(minijs.NewObject()))
		window.Set("__webdriver_evaluate", minijs.True)
	}
	// Driver-binary leftovers that survive variable renaming: present in
	// every ChromeDriver-based stack regardless of stealth patching.
	if prof.ChromedriverArtifacts {
		window.Set("$chrome_asyncScriptInfo", minijs.True)
		ip.SetGlobal("__driverEvaluateHook", minijs.True)
	}
}

// buildLocation constructs the location object for the page URL.
func (pg *page) buildLocation() *minijs.Object {
	loc := minijs.NewObject()
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
// A page without a realm has run no script, so nothing to detect.
func (pg *page) checkNavigation() {
	if pg.pendingNav != "" || pg.interp == nil {
		return
	}
	current := pg.url.String()
	if href := pg.locationObj.Get("href"); href.ToString() != current {
		pg.pendingNav = href.ToString()
		return
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
