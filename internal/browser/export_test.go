package browser

import (
	"sync"

	"crawlerbox/internal/imaging"
)

// CaptureEagerScreenshots renders every page that loads, until restore
// runs, with referenceScreenshot at the moment its result is assembled, as
// the eager render did, and passes the result and that image to fn. fn is
// called under a lock, so it may record into plain maps while visits run on
// several workers.
//
// The reference reads the wrappers a realm holds, and every page had one
// when the eager render ran. A page that ran no script gets its realm
// built here, on the finished page; that is the realm it would have had,
// since without script its DOM is the DOM it was created with.
func CaptureEagerScreenshots(fn func(r *Result, eager *imaging.Image)) (restore func()) {
	var mu sync.Mutex
	testHookAssemble = func(pg *page, r *Result) {
		if pg == nil {
			return
		}
		if pg.interp == nil {
			pg.setupEnvironment()
		}
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
