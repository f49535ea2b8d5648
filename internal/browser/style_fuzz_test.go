package browser

import (
	"slices"
	"testing"

	"crawlerbox/internal/htmlx"
)

// FuzzStyleLookup checks the layout's style scan against parseStyle, the
// split it replaced: for each set of property names the layout asks for,
// nextStyleValue yields, in order, the values of exactly those of
// parseStyle's pairs whose name is in the set. That keeps which value wins
// (the first that parses, a "-color" name as good as the bare one) and
// the case folding of names, Unicode and invalid UTF-8 included. The
// height lookup built on it must agree with the old one too.
func FuzzStyleLookup(f *testing.F) {
	for _, seed := range []string{
		"",
		"background:red",
		"BackGround-Color : #FFF ; color:navy;height:20px",
		";;:;a:;:b;height: 12px ;height:3px",
		"height:0;height:abc;HEIGHT:7px",
		"filter:hue-rotate(4deg);filter:none",
		"\u212aolor:red",          // Kelvin sign: lower-cases to k
		"\u017folor:red;co\u017f", // long s: no lower-case of its own
		"\xffcolor:red;color\xff:blue",
		"color\u00a0:red;\u0085height:1px",
		"BACKGROUND\t:\t url(x.png)",
	} {
		f.Add(seed)
	}
	names := [][]string{
		{_propBackground.css, _propBackground.cssColor},
		{_propColor.css, _propColor.cssColor},
		{"height"},
		{"filter"},
	}
	f.Fuzz(func(t *testing.T, style string) {
		pairs := parseStyle(style)
		for _, set := range names {
			var want []string
			for _, kv := range pairs {
				if slices.Contains(set, kv[0]) {
					want = append(want, kv[1])
				}
			}
			var got []string
			for rest := style; ; {
				v, ok := nextStyleValue(&rest, set...)
				if !ok {
					break
				}
				got = append(got, v)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("style %q, names %q: scan yields %q, parseStyle %q", style, set, got, want)
			}
		}
		node := &htmlx.Node{Kind: htmlx.KindElement, Tag: "div", Attrs: map[string]string{"style": style}}
		if got, want := styleHeight(node, 14), refStyleHeight(node, 14); got != want {
			t.Fatalf("style %q: height %d, parseStyle's %d", style, got, want)
		}
	})
}
