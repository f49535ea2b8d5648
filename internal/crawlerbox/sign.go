package crawlerbox

import (
	"hash/maphash"
	"sync"

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

// _signMemoSeed keys the memo's hash of a display list. It is drawn per
// process, so pages cannot be crafted to collide.
var _signMemoSeed = maphash.MakeSeed()

// signMemo remembers the signatures of recent screenshots, keyed by their
// display lists, at most signMemoSize of them and signMemoBytes of lists in
// all, evicting first in, first out. A screenshot's pixels are a pure
// function of its display list (browser.Result.DisplayList), so a hit
// returns exactly the Sign of the pixels a render would paint. An entry
// matches only a list with the same hash and equal bytes.
type signMemo struct {
	mu      sync.Mutex
	entries [signMemoSize]signMemoEntry // guarded by mu
	oldest  int                         // guarded by mu
	n       int                         // entries in use; guarded by mu
	bytes   int                         // sum of the entries' list lengths; guarded by mu
}

// signMemoEntry is one memoised signature. An empty list marks a free slot:
// a page always lays out at least its background.
type signMemoEntry struct {
	hash uint64
	list string
	sig  imaging.Signature
}

// get returns the memoised signature of list, which is not empty.
func (m *signMemo) get(hash uint64, list string) (imaging.Signature, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if e := &m.entries[i]; e.hash == hash && e.list == list {
			return e.sig, true
		}
	}
	return imaging.Signature{}, false
}

// put records a signature, evicting the oldest entries until it fits.
func (m *signMemo) put(e signMemoEntry) {
	if len(e.list) > signMemoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.n == len(m.entries) || m.bytes+len(e.list) > signMemoBytes {
		m.bytes -= len(m.entries[m.oldest].list)
		m.entries[m.oldest] = signMemoEntry{}
		m.oldest = (m.oldest + 1) % len(m.entries)
		m.n--
	}
	m.entries[(m.oldest+m.n)%len(m.entries)] = e
	m.n++
	m.bytes += len(e.list)
}

// sign returns the pHash/dHash signature of a visit's screenshot, and false
// when the visit loaded no page. It is the one way the pipeline signs a
// screenshot (Classify, the differential probe, the brand references). A
// display list the memo holds is neither rasterized nor signed, and the
// result's Screenshot stays nil; otherwise the screenshot is rendered onto
// the result, signed, and the signature memoised.
func (p *Pipeline) sign(res *browser.Result) (imaging.Signature, bool) {
	list := res.DisplayList()
	if list == "" {
		return imaging.Signature{}, false
	}
	hash := maphash.String(_signMemoSeed, list)
	if sig, ok := p.signs.get(hash, list); ok {
		return sig, true
	}
	sig := imaging.Sign(res.RenderScreenshot())
	p.signs.put(signMemoEntry{hash: hash, list: list, sig: sig})
	return sig, true
}
