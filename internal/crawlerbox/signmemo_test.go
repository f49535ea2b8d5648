package crawlerbox

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/phishkit"
)

// canvasBytes is what one rendered screenshot allocates: 256×192 RGB.
const canvasBytes = 256 * 192 * 3

// loadPage lays out html as a locally opened page, with a browser of p's.
func loadPage(t testing.TB, p *Pipeline, html string) *browser.Result {
	t.Helper()
	res, err := p.NewBrowser(1).LoadHTML(context.Background(), html, "page.html")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// freshSign is the signature sign must return: a render and a Sign of the
// page's pixels, with no memo involved.
func freshSign(t testing.TB, p *Pipeline, html string) imaging.Signature {
	t.Helper()
	return imaging.Sign(loadPage(t, p, html).RenderScreenshot())
}

// A memo hit neither rasterizes nor signs: the result's Screenshot stays
// nil, the hit allocates less than one canvas, and the signature is the
// one a render gives.
func TestSignMemoHitRendersNothing(t *testing.T) {
	p := newParser()
	html := phishkit.LoginPageHTML(phishkit.BrandAcmeTravelTech, phishkit.LoginPageOptions{})
	want := freshSign(t, p, html)

	first := loadPage(t, p, html)
	if sig, ok := p.sign(first); !ok || sig != want {
		t.Fatalf("miss: sign = %v, %v; want %v", sig, ok, want)
	}
	if first.Screenshot == nil {
		t.Fatal("a memo miss did not keep the screenshot it rendered")
	}

	second := loadPage(t, p, html)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sig, ok := p.sign(second)
	runtime.ReadMemStats(&after)
	if !ok || sig != want {
		t.Fatalf("hit: sign = %v, %v; want %v", sig, ok, want)
	}
	if second.Screenshot != nil {
		t.Fatal("a memo hit rendered the screenshot")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= canvasBytes {
		t.Fatalf("a memo hit allocated %d B, at least one canvas (%d B)", got, canvasBytes)
	}

	// A result without a page has nothing to sign.
	if _, ok := p.sign(&browser.Result{}); ok {
		t.Fatal("signed a result that loaded no page")
	}
}

// Classify signs through the memo: the second analysis of the same kit
// page classifies the same without rendering it.
func TestClassifySignsEachPageOnce(t *testing.T) {
	env := newEnv(t)
	site := phishkit.Deploy(env.net, phishkit.SiteConfig{
		Host:  "acmetraveltech-sso.buzz",
		Brand: phishkit.BrandAcmeTravelTech,
	})
	raw := buildMsg(t, "Your password expires today. Renew: "+site.LandingURL)
	for i := 0; i < 2; i++ {
		ma, err := env.pipe.AnalyzeMessage(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !ma.SpearPhish || ma.Brand != phishkit.BrandAcmeTravelTech.Name {
			t.Fatalf("analysis %d: spear=%v brand=%q", i, ma.SpearPhish, ma.Brand)
		}
		if i == 0 {
			continue
		}
		for _, v := range ma.Visits {
			if v.Result != nil && v.Result.Screenshot != nil {
				t.Errorf("analysis %d rendered %s, whose page the memo had signed", i, v.URL)
			}
		}
	}
}

// bandsPage is a page of n one-pixel background bands in shades that
// differ between pages: each band is one FillRect of the display list.
func bandsPage(page, n int) string {
	var sb strings.Builder
	sb.WriteString("<html><body>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<div style="background:#%02x%02x%02x;height:1px"></div>`, page%256, page/256, i%256)
	}
	sb.WriteString("</body></html>")
	return sb.String()
}

// Ten times the memo's capacity of distinct lists, small and then large,
// never takes it over its entry bound, and the byte bound counts each list
// at its length; its latest entries still hit.
func TestSignMemoBounds(t *testing.T) {
	p := newParser()
	check := func(what string) {
		t.Helper()
		if n := p.signs.Len(); n > signMemoSize {
			t.Fatalf("%s: memo holds %d entries, bound %d", what, n, signMemoSize)
		}
	}
	var last *browser.Result
	for i := 0; i < 10*signMemoSize; i++ {
		last = loadPage(t, p, fmt.Sprintf("<html><body><p>page %d</p></body></html>", i))
		if _, ok := p.sign(last); !ok {
			t.Fatal("page not signed")
		}
		check(fmt.Sprintf("small list %d", i))
	}
	if n := p.signs.Len(); n != signMemoSize {
		t.Fatalf("after %d small lists the memo holds %d entries, want %d", 10*signMemoSize, n, signMemoSize)
	}
	again := loadPage(t, p, fmt.Sprintf("<html><body><p>page %d</p></body></html>", 10*signMemoSize-1))
	if p.sign(again); again.Screenshot != nil {
		t.Fatal("the newest entry was evicted")
	}

	// Lists of about 2 KiB: the byte bound binds before the entry bound.
	const bands = 220
	big := len(loadPage(t, p, bandsPage(0, bands)).DisplayList())
	perBudget := signMemoBytes / big
	if perBudget >= signMemoSize {
		t.Fatalf("%d B lists fit %d to the budget: the byte bound would not bind", big, perBudget)
	}
	for i := 0; i < 10*perBudget; i++ {
		if _, ok := p.sign(loadPage(t, p, bandsPage(i, bands))); !ok {
			t.Fatal("page not signed")
		}
		check(fmt.Sprintf("large list %d", i))
	}
	if n := p.signs.Len(); n < perBudget-1 || n > perBudget {
		t.Fatalf("the memo keeps %d large lists, want about %d", n, perBudget)
	}
}

// A display list larger than the memo's whole budget is signed, not
// memoised, and classifies the same as the page without it: white bands
// over the white body of a light-theme login page paint no pixel.
func TestSignMemoOverBudgetList(t *testing.T) {
	env := newEnv(t)
	brand := phishkit.BrandAcmeTravelTech
	plain := phishkit.LoginPageHTML(brand, phishkit.LoginPageOptions{LogoURL: "https://" + brand.Domain + "/assets/logo.png"})
	bands := strings.Repeat(`<div style="background:#ffffff;height:1px"></div>`, 8000)
	huge := strings.Replace(plain, "<body>\n", "<body>\n"+bands, 1)

	n0 := env.pipe.signs.Len()
	res := loadPage(t, env.pipe, huge)
	if l := len(res.DisplayList()); l <= signMemoBytes {
		t.Fatalf("the list is %d B, within the %d B budget", l, signMemoBytes)
	}
	sig, ok := env.pipe.sign(res)
	if !ok || sig != freshSign(t, env.pipe, huge) {
		t.Fatalf("sign = %v, %v; want the render's signature", sig, ok)
	}
	if sig != freshSign(t, env.pipe, plain) {
		t.Fatal("the white bands changed the pixels; the test page is wrong")
	}
	if n := env.pipe.signs.Len(); n != n0 {
		t.Fatalf("memo went from %d entries to %d", n0, n)
	}
	again := loadPage(t, env.pipe, huge)
	if env.pipe.sign(again); again.Screenshot == nil {
		t.Fatal("an over-budget list was served from the memo")
	}

	for _, html := range []string{plain, huge} {
		ma := &MessageAnalysis{}
		env.pipe.classifySpearPhish(ma, &VisitRecord{Result: loadPage(t, env.pipe, html)})
		if !ma.SpearPhish || ma.Brand != brand.Name {
			t.Errorf("%d B page: spear=%v brand=%q", len(html), ma.SpearPhish, ma.Brand)
		}
	}
}

// Eight goroutines signing a shared set of pages, each page first seen by
// whichever goroutine gets there first, all get the render's signatures.
// Run under -race (make race) this checks the memo's locking.
func TestSignMemoConcurrent(t *testing.T) {
	p := newParser()
	pages := make([]string, 24)
	want := make([]imaging.Signature, len(pages))
	for i := range pages {
		pages[i] = fmt.Sprintf(`<html><body style="background:#%02x3050"><h1>kit %d</h1><p>sign in</p></body></html>`, i*9, i)
		want[i] = freshSign(t, p, pages[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			br := p.NewBrowser(int64(g))
			for k := 0; k < 3*len(pages); k++ {
				i := (k*5 + g*7) % len(pages)
				res, err := br.LoadHTML(context.Background(), pages[i], "page.html")
				if err != nil {
					errs <- err.Error()
					return
				}
				if sig, ok := p.sign(res); !ok || sig != want[i] {
					errs <- fmt.Sprintf("goroutine %d, page %d: sign = %v, %v; want %v", g, i, sig, ok, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
