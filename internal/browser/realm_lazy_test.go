package browser_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
)

// A realm builds each browser global when a script first names it, and the
// document's body, head and html wrappers when a script first reaches one
// of them or changes the DOM. This test pins that the corpus's kit scripts
// cannot tell: every message analyzes to the same verdict and every visit
// to the same console, script errors, requests, navigations, DOM and
// screenshot as when each realm built all of them up front.
func TestLazyRealmsMatchEagerRealms(t *testing.T) {
	scripted := 0
	run := func() []string {
		pipe, specs := corpusPipeline(t, 1_000)
		scripted = 0
		out := make([]string, len(specs))
		ch := make(chan crawlerbox.IndexedSpec, len(specs))
		for i, spec := range specs {
			ch <- crawlerbox.IndexedSpec{Index: i, Spec: spec}
		}
		close(ch)
		crawlerbox.AnalyzeStream(context.Background(), pipe.Analyze, ch, 1, func(res crawlerbox.CorpusResult) {
			if res.Err != nil {
				t.Errorf("message %d: %v", res.Index, res.Err)
				return
			}
			out[res.Index] = describeAnalysis(res.Analysis)
			for _, v := range res.Analysis.Visits {
				if v.Result != nil && len(v.Result.Scripts) > 0 {
					scripted++
				}
			}
		})
		return out
	}
	restore := browser.EagerRealms()
	eager := run()
	restore()
	var globals int
	restore = browser.CountGlobalBuilds(func(string) { globals++ })
	lazy := run()
	restore()

	for i := range eager {
		if lazy[i] != eager[i] {
			t.Errorf("message %d analyzes differently with lazy realms:\n lazy: %s\neager: %s", i, lazy[i], eager[i])
		}
	}
	t.Logf("%d messages, %d visits ran script, %d browser globals built lazily", len(eager), scripted, globals)
	if scripted < 20 {
		t.Fatalf("only %d visits ran script; the corpus slice is too small to test", scripted)
	}
}

// describeAnalysis renders what an analysis reports of its visits and its
// verdict.
func describeAnalysis(a *crawlerbox.MessageAnalysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "outcome=%v err=%v spear=%v brand=%q cloaks=%+v facts=%+v",
		a.Outcome, a.ErrorKind, a.SpearPhish, a.Brand, a.Cloaks, a.Facts)
	for _, v := range a.Visits {
		fmt.Fprintf(&sb, "\nvisit %s err=%v", v.URL, v.Err)
		r := v.Result
		if r == nil {
			continue
		}
		fmt.Fprintf(&sb, " final=%s status=%d console=%q scripts=%d script-errors=%q debugger=%d navigations=%q requests=%+v degraded=%v",
			r.FinalURL, r.Status, r.Console, len(r.Scripts), r.ScriptErrors, r.DebuggerHits, r.Navigations, r.Requests, r.Degraded)
		if r.DOM != nil {
			fmt.Fprintf(&sb, " dom=%q", htmlx.Render(r.DOM))
		}
		for _, f := range r.Frames {
			fmt.Fprintf(&sb, " frame=%q", htmlx.Render(f))
		}
		if shot := r.RenderScreenshot(); shot != nil {
			fmt.Fprintf(&sb, " shot=%x", sha256.Sum256(imaging.EncodeCBI(shot)))
		}
	}
	return sb.String()
}
