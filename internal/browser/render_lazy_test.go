package browser_test

import (
	"context"
	"testing"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/htmlx"
	"crawlerbox/internal/imaging"
)

// A screenshot is laid out into a display list when something first reads
// it, and rasterized from that list, which can be long after the visit
// ended and after the analysis released its browsers. These tests pin
// that, for every visit of the seed-7 corpus, the list rasterizes to
// exactly what the eager render paints at the end of the visit
// (referenceScreenshot), whether it runs straight after the crawl or after
// Classify and Census have read the visit, and that rendering leaves the
// DOM alone. A released browser panics if drawn from, so the renders after
// AnalyzeStream also check that no result still draws from its browser's
// random stream.
func TestScreenshotRenderedOnReadMatchesEagerRender(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stages []crawlerbox.Stage
	}{
		{"after crawl", crawlerbox.DefaultStages()[:3]},
		{"after classify and census", crawlerbox.DefaultStages()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eager := map[*browser.Result]*imaging.Image{}
			restore := browser.CaptureEagerScreenshots(func(r *browser.Result, shot *imaging.Image) {
				eager[r] = shot
			})
			defer restore()
			pipe, specs := corpusPipeline(t, 1_000)
			pipe.Stages = tc.stages
			results := make([]crawlerbox.CorpusResult, len(specs))
			ch := make(chan crawlerbox.IndexedSpec, len(specs))
			for i, spec := range specs {
				ch <- crawlerbox.IndexedSpec{Index: i, Spec: spec}
			}
			close(ch)
			crawlerbox.AnalyzeStream(context.Background(), pipe.Analyze, ch, 4, func(res crawlerbox.CorpusResult) {
				results[res.Index] = res
			})
			restore()

			var visits, rendered int
			for _, res := range results {
				if res.Err != nil {
					t.Fatalf("message %d: %v", res.Index, res.Err)
				}
				for _, v := range res.Analysis.Visits {
					r := v.Result
					if r == nil {
						continue
					}
					want, loaded := eager[r]
					if !loaded {
						if shot := r.RenderScreenshot(); shot != nil {
							t.Errorf("%s: a visit that loaded no page rendered a screenshot", v.URL)
						}
						continue
					}
					visits++
					if r.Screenshot != nil {
						rendered++ // Classify signed it, missing its memo
					}
					html := htmlx.Render(r.DOM)
					if r.DisplayList() == "" {
						t.Errorf("%s: a visit that loaded a page has no display list", v.URL)
					}
					if r.Screenshot == nil {
						canvas := imaging.MustNew(want.W, want.H, imaging.RGB{R: 7})
						if r.PaintScreenshot(canvas) != canvas || !canvas.Equal(want) {
							t.Errorf("%s: the display list painted into a canvas differs from the eager render", v.URL)
						}
					}
					got := r.RenderScreenshot()
					if !got.Equal(want) {
						t.Errorf("%s: screenshot rendered on read differs from the eager render", v.URL)
					}
					if after := htmlx.Render(r.DOM); after != html {
						t.Errorf("%s: rendering the screenshot changed the DOM", v.URL)
					}
					if r.Screenshot != got || r.RenderScreenshot() != got {
						t.Errorf("%s: the rendered screenshot is not stored for later reads", v.URL)
					}
				}
			}
			t.Logf("%d visits, %d rendered during analysis", visits, rendered)
			if visits < 20 {
				t.Fatalf("only %d visits loaded a page; the corpus slice is too small to test", visits)
			}
			// Only Classify renders during analysis: the phishing visit it
			// signs, when the signature memo does not hold its display list.
			if classify := len(tc.stages) > 3; classify != (rendered > 0) || rendered >= visits {
				t.Errorf("%d of %d screenshots rendered during analysis", rendered, visits)
			}
		})
	}
}

// corpusPipeline builds a fresh seed-7 world with its pipeline and returns
// the first n corpus messages as specs.
func corpusPipeline(t *testing.T, n int) (*crawlerbox.Pipeline, []crawlerbox.MessageSpec) {
	t.Helper()
	c, err := dataset.Stream(dataset.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pipe := crawlerbox.New(c.Net, c.Registry)
	if err := pipe.AddReferences(context.Background(), c.BrandURLs); err != nil {
		t.Fatal(err)
	}
	var specs []crawlerbox.MessageSpec
	c.Each(func(i int, m *dataset.Message) bool {
		specs = append(specs, crawlerbox.MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: m.Delivered.Add(2 * time.Hour)})
		return len(specs) < n
	})
	return pipe, specs
}
