package browser

import (
	"sort"
	"sync"

	"crawlerbox/internal/imaging"
	"crawlerbox/internal/minijs"
)

// CaptureEagerScreenshots renders every page that loads, until restore
// runs, with referenceScreenshot at the moment its result is assembled, as
// the eager render did, and passes the result and that image to fn. fn is
// called under a lock, so it may record into plain maps while visits run on
// several workers.
//
// The reference reads the wrappers a realm holds, and every page had one,
// with body, head and html wrapped, when the eager render ran. A page that
// ran no script gets its realm built here, on the finished page, and a
// page whose scripts never reached those wrappers gets them built here:
// they are what it would have had, since a page's DOM is the DOM it was
// created with until a script changes it, and a change builds them first.
func CaptureEagerScreenshots(fn func(r *Result, eager *imaging.Image)) (restore func()) {
	var mu sync.Mutex
	testHookAssemble = func(pg *page, r *Result) {
		if pg == nil {
			return
		}
		if pg.interp == nil {
			pg.setupEnvironment()
		}
		pg.wrapRoots()
		shot := referenceScreenshot(pg)
		mu.Lock()
		defer mu.Unlock()
		fn(r, shot)
	}
	return func() { testHookAssemble = nil }
}

// CountRealms reports, until restore runs, each page assembled into a
// result and whether it built a script realm. fn is called under a lock.
func CountRealms(fn func(realm bool)) (restore func()) {
	var mu sync.Mutex
	testHookAssemble = func(pg *page, _ *Result) {
		if pg == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fn(pg.interp != nil)
	}
	return func() { testHookAssemble = nil }
}

// EagerRealms makes every realm built until restore runs build all its
// browser globals, and the document's body, head and html wrappers, as
// soon as it is built, as realms did before their globals were built on
// demand.
func EagerRealms() (restore func()) {
	names := make([]string, 0, len(_browserGlobals))
	for name := range _browserGlobals {
		names = append(names, name)
	}
	sort.Strings(names)
	testHookRealm = func(pg *page) {
		for _, name := range names {
			pg.interp.Global(name)
		}
		pg.document().Keys() // runs the document's deferred fill
	}
	return func() { testHookRealm = nil }
}

// CountGlobalBuilds reports, until restore runs, the name of every browser
// global a realm builds. fn is called under a lock.
func CountGlobalBuilds(fn func(name string)) (restore func()) {
	var mu sync.Mutex
	testHookRealm = func(pg *page) {
		resolve := pg.interp.Resolve
		pg.interp.Resolve = func(name string) (minijs.Value, bool) {
			v, ok := resolve(name)
			if ok {
				mu.Lock()
				defer mu.Unlock()
				fn(name)
			}
			return v, ok
		}
	}
	return func() { testHookRealm = nil }
}
