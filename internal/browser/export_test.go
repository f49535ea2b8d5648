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
func CaptureEagerScreenshots(fn func(r *Result, eager *imaging.Image)) (restore func()) {
	var mu sync.Mutex
	testHookAssemble = func(pg *page, r *Result) {
		if pg == nil {
			return
		}
		shot := referenceScreenshot(pg)
		mu.Lock()
		defer mu.Unlock()
		fn(r, shot)
	}
	return func() { testHookAssemble = nil }
}
