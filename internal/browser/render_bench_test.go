package browser

import (
	"context"
	"testing"

	"crawlerbox/internal/cloak"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/phishkit"
)

// renderSink keeps the benchmarked render from being optimised away.
var renderSink *imaging.Image

// BenchmarkScreenshotRender times the screenshot step alone: laying out a
// processed page into its display list and rasterising the list into a new
// image, including the hue-rotate filter when a script installed one. Each page is parsed and its scripts run once, outside the timer.
// The pages are the shared login template of a light-theme and a
// dark-theme brand, and a kit clone that carries the hue-rotate(4deg)
// evasion.
func BenchmarkScreenshotRender(b *testing.B) {
	hue := phishkit.LoginPageOptions{ExtraHead: "<script>" + cloak.HueRotate(4) + "</script>"}
	for _, tc := range []struct {
		name string
		html string
		hue  bool
	}{
		{"light", phishkit.LoginPageHTML(phishkit.BrandAcmeTravelTech, phishkit.LoginPageOptions{}), false},
		{"dark", phishkit.LoginPageHTML(phishkit.BrandSkyBooker, phishkit.LoginPageOptions{}), false},
		{"hue-rotate", phishkit.LoginPageHTML(phishkit.BrandAcmeTravelTech, hue), true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, br := testWorld(b, tc.html)
			pg, err := br.processDocument(context.Background(), "https://phish.example/", "", tc.html, &recorder{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			st := newShotState(pg)
			if _, ok := st.hueRotation(pg.html, pg.body); ok != tc.hue {
				b.Fatalf("hue-rotate installed = %v, want %v", ok, tc.hue)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				renderSink = newCanvas()
				rasterize(st.layout(), renderSink)
			}
		})
	}
}
