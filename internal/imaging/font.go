package imaging

import (
	"math/bits"
	"sort"
	"strings"
)

// Glyph metrics for the built-in 5x7 bitmap font.
const (
	GlyphW   = 5
	GlyphH   = 7
	GlyphGap = 1
	// AdvanceX is the horizontal distance between glyph origins.
	AdvanceX = GlyphW + GlyphGap
	// LineH is the vertical distance between line origins.
	LineH = GlyphH + 2
)

// _font maps supported characters to 7 rows of 5 bits (MSB = leftmost
// pixel). The repertoire covers URLs and the Latin text that phishing lures
// and login pages contain; lowercase input is rendered with the uppercase
// glyphs, mirroring OCR case-insensitivity.
var _font = map[rune][GlyphH]uint8{
	'A': {0b01110, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001},
	'B': {0b11110, 0b10001, 0b10001, 0b11110, 0b10001, 0b10001, 0b11110},
	'C': {0b01110, 0b10001, 0b10000, 0b10000, 0b10000, 0b10001, 0b01110},
	'D': {0b11100, 0b10010, 0b10001, 0b10001, 0b10001, 0b10010, 0b11100},
	'E': {0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b11111},
	'F': {0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b10000},
	'G': {0b01110, 0b10001, 0b10000, 0b10111, 0b10001, 0b10001, 0b01111},
	'H': {0b10001, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001},
	'I': {0b01110, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},
	'J': {0b00111, 0b00010, 0b00010, 0b00010, 0b00010, 0b10010, 0b01100},
	'K': {0b10001, 0b10010, 0b10100, 0b11000, 0b10100, 0b10010, 0b10001},
	'L': {0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b11111},
	'M': {0b10001, 0b11011, 0b10101, 0b10101, 0b10001, 0b10001, 0b10001},
	'N': {0b10001, 0b11001, 0b10101, 0b10011, 0b10001, 0b10001, 0b10001},
	'O': {0b01110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110},
	'P': {0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000, 0b10000},
	'Q': {0b01110, 0b10001, 0b10001, 0b10001, 0b10101, 0b10010, 0b01101},
	'R': {0b11110, 0b10001, 0b10001, 0b11110, 0b10100, 0b10010, 0b10001},
	'S': {0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110},
	'T': {0b11111, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100},
	'U': {0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110},
	'V': {0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01010, 0b00100},
	'W': {0b10001, 0b10001, 0b10001, 0b10101, 0b10101, 0b11011, 0b10001},
	'X': {0b10001, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001, 0b10001},
	'Y': {0b10001, 0b10001, 0b01010, 0b00100, 0b00100, 0b00100, 0b00100},
	'Z': {0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b11111},
	'0': {0b01110, 0b10011, 0b10101, 0b10101, 0b10101, 0b11001, 0b01110},
	'1': {0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110},
	'2': {0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111},
	'3': {0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110},
	'4': {0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010},
	'5': {0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110},
	'6': {0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110},
	'7': {0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000},
	'8': {0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110},
	'9': {0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100},
	':': {0b00000, 0b00100, 0b00100, 0b00000, 0b00100, 0b00100, 0b00000},
	'/': {0b00001, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b10000},
	'.': {0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b01100, 0b01100},
	'-': {0b00000, 0b00000, 0b00000, 0b11111, 0b00000, 0b00000, 0b00000},
	'_': {0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b11111},
	'?': {0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b00000, 0b00100},
	'=': {0b00000, 0b00000, 0b11111, 0b00000, 0b11111, 0b00000, 0b00000},
	'&': {0b01100, 0b10010, 0b10100, 0b01000, 0b10101, 0b10010, 0b01101},
	'#': {0b01010, 0b01010, 0b11111, 0b01010, 0b11111, 0b01010, 0b01010},
	'%': {0b11001, 0b11001, 0b00010, 0b00100, 0b01000, 0b10011, 0b10011},
	'@': {0b01110, 0b10001, 0b10111, 0b10101, 0b10111, 0b10000, 0b01110},
	'!': {0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00000, 0b00100},
	',': {0b00000, 0b00000, 0b00000, 0b00000, 0b01100, 0b00100, 0b01000},
	'[': {0b01110, 0b01000, 0b01000, 0b01000, 0b01000, 0b01000, 0b01110},
	']': {0b01110, 0b00010, 0b00010, 0b00010, 0b00010, 0b00010, 0b01110},
	'+': {0b00000, 0b00100, 0b00100, 0b11111, 0b00100, 0b00100, 0b00000},
	'~': {0b00000, 0b00000, 0b01000, 0b10101, 0b00010, 0b00000, 0b00000},
}

func normalizeRune(r rune) rune {
	if r >= 'a' && r <= 'z' {
		return r - 'a' + 'A'
	}
	return r
}

// DrawText renders text at origin (x, y) in the given ink color, one glyph
// per AdvanceX, handling '\n' as a line break. Unsupported runes render as
// blank space. It returns the number of glyphs drawn (excluding spaces).
func DrawText(img *Image, x, y int, text string, ink RGB) int {
	cx, cy := x, y
	var drawn int
	for _, r := range text {
		if r == '\n' {
			cx = x
			cy += LineH
			continue
		}
		if r == ' ' {
			cx += AdvanceX
			continue
		}
		glyph, ok := _font[normalizeRune(r)]
		if !ok {
			cx += AdvanceX
			continue
		}
		for row := 0; row < GlyphH; row++ {
			bitsRow := glyph[row]
			for col := 0; col < GlyphW; col++ {
				if bitsRow&(1<<(GlyphW-1-col)) != 0 {
					img.Set(cx+col, cy+row, ink)
				}
			}
		}
		drawn++
		cx += AdvanceX
	}
	return drawn
}

// TextWidth returns the pixel width of a single-line string.
func TextWidth(text string) int {
	n := len([]rune(text))
	if n == 0 {
		return 0
	}
	return n*AdvanceX - GlyphGap
}

// packedGlyph is a glyph's 35 ink bits packed into a uint64 (row-major,
// bit 0 = top-left).
type packedGlyph struct {
	r    rune
	mask uint64
	ink  int
}

func packedFont() []packedGlyph {
	out := make([]packedGlyph, 0, len(_font))
	for r, glyph := range _font {
		var mask uint64
		bit := 0
		for row := 0; row < GlyphH; row++ {
			for col := 0; col < GlyphW; col++ {
				if glyph[row]&(1<<(GlyphW-1-col)) != 0 {
					mask |= 1 << uint(bit)
				}
				bit++
			}
		}
		out = append(out, packedGlyph{r: r, mask: mask, ink: bits.OnesCount64(mask)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].r < out[j].r })
	return out
}

// OCR decodes text rendered with DrawText back out of an image. It binarizes
// at a fixed luma threshold (dark = ink), locates glyph rows, and greedily
// matches glyphs whose ink overlaps a font glyph with Jaccard similarity of
// at least minScore. It returns the recovered lines, top to bottom.
//
// The decoder tolerates the additive noise and small photometric shifts that
// message images in the corpus carry, reproducing the role of the OCR
// libraries in the original CrawlerBox parsing phase.
func OCR(img *Image, minScore float64) []string {
	if minScore <= 0 || minScore > 1 {
		minScore = 0.9
	}
	// A decoded raster with inconsistent dimensions (hostile CBI input) must
	// not size the ink buffer; Gray trusts Pix to match W and H.
	if img == nil || img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H {
		return nil
	}
	const darkThreshold = 128.0
	dark := make([]bool, img.W*img.H)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			dark[y*img.W+x] = img.Gray(x, y) < darkThreshold
		}
	}
	glyphs := packedFont()
	var lines []string
	y := 0
	for y <= img.H-GlyphH {
		line := decodeRow(img, dark, glyphs, y, minScore)
		if line == "" {
			y++
			continue
		}
		// A fragment of a glyph row can masquerade as a short line (e.g.
		// the top bar of 'T' decodes as '_'). Prefer the longest decode
		// within one glyph height of the anchor.
		bestY, best := y, line
		for yy := y + 1; yy <= min(y+GlyphH, img.H-GlyphH); yy++ {
			if l := decodeRow(img, dark, glyphs, yy, minScore); len(l) > len(best) {
				best, bestY = l, yy
			}
		}
		lines = append(lines, strings.TrimRight(best, " "))
		y = bestY + GlyphH // skip past the decoded band
	}
	return lines
}

// decodeRow returns the first plausible text run whose glyph tops sit at
// row y, or "" when none decodes.
func decodeRow(img *Image, dark []bool, glyphs []packedGlyph, y int, minScore float64) string {
	for x := 0; x <= img.W-GlyphW; x++ {
		r, score := matchGlyph(img, dark, glyphs, x, y)
		if score < minScore || r == 0 {
			continue
		}
		line := decodeRun(img, dark, glyphs, x, y, minScore)
		if len(strings.TrimSpace(line)) >= 2 {
			return line
		}
	}
	return ""
}

// decodeRun decodes a maximal run of glyphs starting at (x, y), stepping
// AdvanceX per glyph and tolerating short space gaps.
func decodeRun(img *Image, dark []bool, glyphs []packedGlyph, x, y int, minScore float64) string {
	var sb strings.Builder
	gaps := 0
	for cx := x; cx <= img.W-GlyphW; cx += AdvanceX {
		r, score := matchGlyph(img, dark, glyphs, cx, y)
		if score >= minScore && r != 0 {
			for i := 0; i < gaps; i++ {
				sb.WriteByte(' ')
			}
			gaps = 0
			sb.WriteRune(r)
			continue
		}
		if cellMask(img, dark, cx, y) == 0 {
			gaps++
			if gaps > 3 {
				break
			}
			continue
		}
		break
	}
	return sb.String()
}

// matchGlyph returns the font rune whose ink best overlaps the 5x7 cell at
// (x, y), scored by Jaccard similarity of the ink sets. Scoring overlap
// rather than pixel agreement prevents sparse glyphs such as '.' or '_'
// from matching arbitrary fragments.
func matchGlyph(img *Image, dark []bool, glyphs []packedGlyph, x, y int) (rune, float64) {
	cell := cellMask(img, dark, x, y)
	if cell == 0 {
		return 0, 0
	}
	cellInk := bits.OnesCount64(cell)
	bestRune := rune(0)
	bestScore := 0.0
	for _, g := range glyphs {
		inter := bits.OnesCount64(cell & g.mask)
		union := cellInk + g.ink - inter
		if union == 0 {
			continue
		}
		score := float64(inter) / float64(union)
		if score > bestScore {
			bestScore = score
			bestRune = g.r
		}
	}
	return bestRune, bestScore
}

// cellMask packs the 5x7 ink mask at (x, y) into a uint64.
func cellMask(img *Image, dark []bool, x, y int) uint64 {
	var mask uint64
	bit := 0
	for row := 0; row < GlyphH; row++ {
		base := (y + row) * img.W
		for col := 0; col < GlyphW; col++ {
			xx := x + col
			if xx < img.W && y+row < img.H && dark[base+xx] {
				mask |= 1 << uint(bit)
			}
			bit++
		}
	}
	return mask
}
