package phishkit

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"crawlerbox/internal/imaging"
)

// _pinnedShots fixes, per page, the SHA-256 of the screenshot's CBI bytes
// and its fuzzy signature. The verdict goldens only see a screenshot
// through a match decision, so a raster or hash kernel that drifts by a
// pixel or a coefficient can pass them unnoticed; these pins catch it.
// The values were recorded with the per-pixel kernels the optimised ones
// replaced.
var _pinnedShots = map[string]struct {
	cbiSHA256 string
	sig       imaging.Signature
}{
	"ACME TRAVELTECH hue-rotate(4deg)":  {"c614519810ca32af2f2b0e57f6f9fcd06f52b0d9afff825d69cbb07ba101faaf", imaging.Signature{PHash: 0xc7c75ea1a10e86d4, DHash: 0xa030000010d000d}},
	"ACME TRAVELTECH":                   {"5ce1d4a7bbb716ac33078f656b640a59dab05b82e660ef41a2bff6fc93fed082", imaging.Signature{PHash: 0xc7c75ea1a10e86d4, DHash: 0xa030000010d000d}},
	"FAREWELL CONTENT hue-rotate(4deg)": {"78448605535771f08292258cad3212ba9ca1210fe5f48129e5de85bd57364c27", imaging.Signature{PHash: 0xe10e87f41ea1aa56, DHash: 0x10006010d09000c}},
	"FAREWELL CONTENT":                  {"29c5e3efb749cfe67940a67ed8defa42717fe936c8c3cf661a3395bfdec1b615", imaging.Signature{PHash: 0xe10e87f41ea1aa56, DHash: 0x10006010d09000c}},
	"PAYROUTE hue-rotate(4deg)":         {"ac0423653907d2f57cc0dd4425c08b22da543864e3e6560cdedbf4c2532ea7b3", imaging.Signature{PHash: 0xf00ff01fe00ff00e, DHash: 0x8680808200000002}},
	"PAYROUTE":                          {"ed1825219e65dad1a080febe635494e4ab859def8dff7d5b14c0e4381a2de112", imaging.Signature{PHash: 0xf00ff01fe00ff00e, DHash: 0x8680808200000002}},
	"SKYBOOKER hue-rotate(4deg)":        {"75f00f00d9a4d98844452902b9e9f7cc525daca08cff8e7d45507bdc540ad223", imaging.Signature{PHash: 0x5e1eaba9d4540f0a, DHash: 0x48280868606}},
	"SKYBOOKER":                         {"6f5be5e3d506141aa3d435c5c110fb7687346609c22829be3191ae7168e086b2", imaging.Signature{PHash: 0x5e1eaba9d4540f0a, DHash: 0x48280868606}},
	"TRANSITGO hue-rotate(4deg)":        {"da2d0b07489f5f8472cc74f89773859a1ce0dd08635280d38901bf6a94b438e6", imaging.Signature{PHash: 0xa1a1c17e3e0e1e5c, DHash: 0x20301000607}},
	"TRANSITGO":                         {"3bbb3c8e9fc428dfe82c49c064f67d627ba8391a524e4f87d9414fa5e94f0183", imaging.Signature{PHash: 0xa1a1c17e3e0e1e5c, DHash: 0x20301000606}},
}

// screenshotPinPages visits each protected brand's login page and, for
// each brand, a kit page that injects the hue-rotate(4deg) evasion, in a
// fixed order with fixed browser seeds.
func screenshotPinPages(t *testing.T) map[string]*imaging.Image {
	t.Helper()
	net := newNet()
	shots := map[string]*imaging.Image{}
	for i, b := range StudyBrands {
		legitURL := DeployBrandSite(net, b)
		kit := Deploy(net, SiteConfig{
			Host:         "rotated-" + b.Domain,
			Brand:        b,
			HueRotateDeg: 4,
		})
		for j, page := range []struct{ name, url string }{
			{b.Name, legitURL},
			{b.Name + " hue-rotate(4deg)", kit.LandingURL},
		} {
			res, err := newBrowser(net, int64(2*i+j+1)).Visit(context.Background(), page.url)
			if err != nil {
				t.Fatalf("%s: %v", page.name, err)
			}
			shots[page.name] = res.RenderScreenshot()
		}
	}
	return shots
}

func TestScreenshotPixelsAndSignaturesPinned(t *testing.T) {
	shots := screenshotPinPages(t)
	if len(shots) != len(_pinnedShots) {
		t.Errorf("rendered %d pages, %d pinned", len(shots), len(_pinnedShots))
	}
	for name, img := range shots {
		sum := sha256.Sum256(imaging.EncodeCBI(img))
		got, sig := hex.EncodeToString(sum[:]), imaging.Sign(img)
		want, ok := _pinnedShots[name]
		if !ok {
			t.Errorf("%q: no pin (cbi %s, sig %#x/%#x)", name, got, sig.PHash, sig.DHash)
			continue
		}
		if got != want.cbiSHA256 {
			t.Errorf("%q: CBI sha256 = %s, want %s", name, got, want.cbiSHA256)
		}
		if sig != want.sig {
			t.Errorf("%q: Sign = %#x/%#x, want %#x/%#x", name, sig.PHash, sig.DHash, want.sig.PHash, want.sig.DHash)
		}
	}
}
