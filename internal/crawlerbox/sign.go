package crawlerbox

import (
	"crawlerbox/internal/browser"
	"crawlerbox/internal/imaging"
)

// signMemoSize bounds the signature memo's entries. Most active-phishing
// pages are kit clones that lay out identically: a replay of the seed-42
// corpus signs 1,125 screenshots drawn from 29 distinct display lists.
const signMemoSize = 128

// signMemoBytes bounds the display-list bytes the signature memo pins.
// Lists run a few hundred bytes; a page can make its list as long as its
// DOM (every empty background band is one call), and a list larger than
// the whole budget is signed but not memoised.
const signMemoBytes = 64 << 10

// sign returns the pHash/dHash signature of a visit's screenshot, and false
// when the visit loaded no page. It is the one way the pipeline signs a
// screenshot (Classify, the differential probe, the brand references). A
// display list the memo holds is neither rasterized nor signed, and the
// result's Screenshot stays nil; otherwise the screenshot is rendered onto
// the result, signed, and the signature memoised. A screenshot's pixels
// are a pure function of its display list, so a hit returns exactly the
// Sign of the pixels a render would paint.
func (p *Pipeline) sign(res *browser.Result) (imaging.Signature, bool) {
	list := res.DisplayList()
	if list == "" {
		return imaging.Signature{}, false
	}
	h := p.signs.Hash(list)
	if sig, ok := p.signs.Get(h, list); ok {
		return sig, true
	}
	sig := imaging.Sign(res.RenderScreenshot())
	p.signs.Put(h, list, sig, len(list))
	return sig, true
}
