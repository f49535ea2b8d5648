package qrcode

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"crawlerbox/internal/imaging"
)

// Render draws the matrix into an RGB image with the given module scale
// (pixels per module) and quiet-zone width (in modules).
func Render(m *Matrix, scale, quiet int) (*imaging.Image, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("qrcode: scale must be positive, got %d", scale)
	}
	if quiet < 0 {
		quiet = 0
	}
	side := (m.Size + 2*quiet) * scale
	img, err := imaging.New(side, side, imaging.White)
	if err != nil {
		return nil, err
	}
	for y := 0; y < m.Size; y++ {
		for x := 0; x < m.Size; x++ {
			if !m.At(x, y) {
				continue
			}
			px := (x + quiet) * scale
			py := (y + quiet) * scale
			img.FillRect(px, py, px+scale, py+scale, imaging.Black)
		}
	}
	return img, nil
}

// DecodeImage locates an upright QR code in img via its finder patterns,
// samples the module grid, and decodes it. It tolerates moderate pixel noise
// thanks to per-module majority sampling and Reed-Solomon correction.
func DecodeImage(img *imaging.Image) (*Decoded, error) {
	// Reject malformed rasters up front: locate sizes its work buffers from
	// W and H and trusts Pix to match.
	if img == nil || img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H {
		return nil, ErrNotFound
	}
	loc, err := locate(img)
	if err != nil {
		return nil, err
	}
	matrix, err := sample(img, loc)
	if err != nil {
		return nil, err
	}
	return DecodeMatrix(matrix)
}

// location describes a found QR grid inside an image.
type location struct {
	originX, originY float64 // top-left corner of module (0,0)
	module           float64 // module size in pixels
	size             int     // modules per side
}

type finderCandidate struct {
	sumX, sumY, sumModule float64
	n                     float64
}

func (f *finderCandidate) cx() float64     { return f.sumX / f.n }
func (f *finderCandidate) cy() float64     { return f.sumY / f.n }
func (f *finderCandidate) module() float64 { return f.sumModule / f.n }

// darkPool holds the bitmaps locate binarizes images into; a bitmap over
// maxPooledDark pixels is not kept.
var darkPool sync.Pool

const maxPooledDark = 1 << 20

// locate finds the three finder patterns of an upright QR code.
func locate(img *imaging.Image) (location, error) {
	buf, _ := darkPool.Get().(*[]bool)
	if buf == nil {
		buf = new([]bool)
	}
	dark := binarize(img, *buf)
	if len(dark) <= maxPooledDark {
		*buf = dark
		defer darkPool.Put(buf)
	}
	var candidates []*finderCandidate
	// Run buffers are reused across scan rows; rowRuns used to allocate a
	// fresh pair per row, which dominated the locator's allocation count.
	var runs, starts []int
	// Horizontal scan for 1:1:3:1:1 runs, confirmed vertically.
	for y := 0; y < img.H; y++ {
		runs, starts = rowRuns(dark, img.W, y, runs[:0], starts[:0])
		for i := 0; i+4 < len(runs); i++ {
			// Runs alternate colors; the pattern must start dark.
			if !dark[y*img.W+starts[i]] {
				continue
			}
			if !finderRatio(runs[i], runs[i+1], runs[i+2], runs[i+3], runs[i+4]) {
				continue
			}
			total := runs[i] + runs[i+1] + runs[i+2] + runs[i+3] + runs[i+4]
			cx := float64(starts[i]) + float64(total)/2
			module := float64(total) / 7
			if cy, ok := confirmVertical(dark, img.W, img.H, int(cx), y, module); ok {
				candidates = mergeCandidate(candidates, cx, cy, module)
			}
		}
	}
	if len(candidates) < 3 {
		return location{}, ErrNotFound
	}
	// Prefer candidates supported by many scan rows: true finders are
	// confirmed on every row crossing their core; data-region mimics are
	// confirmed on one or two.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].n > candidates[j].n })
	if len(candidates) > 12 {
		candidates = candidates[:12]
	}
	tl, tr, bl, ok := classifyFinders(candidates)
	if !ok {
		return location{}, ErrNotFound
	}
	module := (tl.module() + tr.module() + bl.module()) / 3
	span := ((tr.cx() - tl.cx()) + (bl.cy() - tl.cy())) / 2
	sizeF := span/module + 7
	size := int(math.Round((sizeF-17)/4))*4 + 17
	if size < 21 {
		return location{}, ErrNotFound
	}
	// Refine module size from the span and the now-known module count.
	module = span / float64(size-7)
	return location{
		originX: tl.cx() - 3.5*module,
		originY: tl.cy() - 3.5*module,
		module:  module,
		size:    size,
	}, nil
}

// binarize marks the dark pixels of img, writing into buf when its
// capacity holds them and into a fresh slice otherwise.
func binarize(img *imaging.Image, buf []bool) []bool {
	if cap(buf) < len(img.Pix) {
		buf = make([]bool, len(img.Pix))
	}
	dark := buf[:len(img.Pix)]
	// Direct pixel reads: Image.Gray routes every sample through a
	// bounds-checked At call, which this whole-image pass doesn't need.
	for i, c := range img.Pix {
		dark[i] = isDark(c)
	}
	return dark
}

// isDark reports whether grayOf(c) < 128, in integer arithmetic: the
// weighted sum 299R+587G+114B is 1000 times the luma exactly, so it decides
// every pixel but those where it equals 128000, whose luma the float
// expression may round to either side of 128; those keep the float test.
func isDark(c imaging.RGB) bool {
	sum := 299*int(c.R) + 587*int(c.G) + 114*int(c.B)
	if sum == 128000 {
		return grayOf(c) < 128
	}
	return sum < 128000
}

// grayOf is the ITU-R BT.601 luma of one pixel, identical to
// imaging.Image.Gray for in-bounds coordinates.
func grayOf(c imaging.RGB) float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// rowRuns returns the run lengths and start offsets across row y, appending
// into the caller-provided buffers so scans can reuse them across rows.
func rowRuns(dark []bool, w, y int, runs, starts []int) ([]int, []int) {
	start := 0
	for x := 1; x <= w; x++ {
		if x < w && dark[y*w+x] == dark[y*w+x-1] {
			continue
		}
		runs = append(runs, x-start)
		starts = append(starts, start)
		start = x
	}
	return runs, starts
}

// finderRatio checks the 1:1:3:1:1 run ratio with 50% per-run tolerance.
func finderRatio(a, b, c, d, e int) bool {
	total := a + b + c + d + e
	if total < 7 {
		return false
	}
	unit := float64(total) / 7
	tol := unit / 2
	check := func(run int, want float64) bool {
		return math.Abs(float64(run)-want*unit) <= tol*want
	}
	return check(a, 1) && check(b, 1) && check(c, 3) && check(d, 1) && check(e, 1)
}

// confirmVertical verifies the finder ratio vertically through (x, y) and
// returns the refined center row.
func confirmVertical(dark []bool, w, h, x, y int, module float64) (float64, bool) {
	if x < 0 || x >= w {
		return 0, false
	}
	if !dark[y*w+x] {
		return 0, false
	}
	// Walk up and down through the expected dark-light-dark structure.
	top := y
	for top > 0 && dark[(top-1)*w+x] {
		top--
	}
	bot := y
	for bot < h-1 && dark[(bot+1)*w+x] {
		bot++
	}
	coreLen := float64(bot - top + 1)
	// The center row crosses the 3-module core.
	if math.Abs(coreLen-3*module) > 1.5*module {
		return 0, false
	}
	return (float64(top) + float64(bot)) / 2, true
}

// mergeCandidate merges near-duplicate finder detections, accumulating true
// means so repeated confirmations don't bias the center estimate.
func mergeCandidate(list []*finderCandidate, cx, cy, module float64) []*finderCandidate {
	for _, old := range list {
		if math.Abs(old.cx()-cx) < old.module()*2 && math.Abs(old.cy()-cy) < old.module()*2 {
			old.sumX += cx
			old.sumY += cy
			old.sumModule += module
			old.n++
			return list
		}
	}
	return append(list, &finderCandidate{sumX: cx, sumY: cy, sumModule: module, n: 1})
}

// classifyFinders picks the top-left, top-right and bottom-left patterns of
// an upright code: among all triples forming an axis-aligned right angle
// with consistent module sizes, the most symmetric one wins.
func classifyFinders(cands []*finderCandidate) (tl, tr, bl *finderCandidate, ok bool) {
	best := math.Inf(1)
	for i := 0; i < len(cands); i++ {
		for j := 0; j < len(cands); j++ {
			for k := 0; k < len(cands); k++ {
				if i == j || j == k || i == k {
					continue
				}
				a, b, c := cands[i], cands[j], cands[k]
				m := a.module()
				// Module sizes must agree.
				if math.Abs(b.module()-m) > m*0.3 || math.Abs(c.module()-m) > m*0.3 {
					continue
				}
				// a = top-left, b = top-right, c = bottom-left.
				rowSkew := math.Abs(a.cy() - b.cy())
				colSkew := math.Abs(a.cx() - c.cx())
				if rowSkew > m*2 || colSkew > m*2 {
					continue
				}
				if b.cx() < a.cx()+m*6 || c.cy() < a.cy()+m*6 {
					continue
				}
				spanX := b.cx() - a.cx()
				spanY := c.cy() - a.cy()
				asym := math.Abs(spanX - spanY)
				if asym > m*3 {
					continue
				}
				score := asym + rowSkew + colSkew
				if score < best {
					best = score
					tl, tr, bl, ok = a, b, c, true
				}
			}
		}
	}
	return tl, tr, bl, ok
}

// sample reads each module by majority vote over a small pixel neighborhood
// around its center.
func sample(img *imaging.Image, loc location) (*Matrix, error) {
	m := &Matrix{Size: loc.size, Modules: make([]bool, loc.size*loc.size)}
	for my := 0; my < loc.size; my++ {
		for mx := 0; mx < loc.size; mx++ {
			cx := loc.originX + (float64(mx)+0.5)*loc.module
			cy := loc.originY + (float64(my)+0.5)*loc.module
			if cx < 0 || cy < 0 || cx >= float64(img.W) || cy >= float64(img.H) {
				return nil, ErrNotFound
			}
			darkVotes, total := 0, 0
			r := int(math.Max(1, loc.module/4))
			// The neighborhood is bounds-clipped up front, so the inner
			// loop reads pixels directly instead of going through the
			// per-sample bounds checks of Image.Gray.
			x0, x1 := max(int(cx)-r, 0), min(int(cx)+r, img.W-1)
			y0, y1 := max(int(cy)-r, 0), min(int(cy)+r, img.H-1)
			for y := y0; y <= y1; y++ {
				row := img.Pix[y*img.W+x0 : y*img.W+x1+1]
				for _, c := range row {
					if isDark(c) {
						darkVotes++
					}
				}
				total += len(row)
			}
			m.Modules[my*loc.size+mx] = total > 0 && darkVotes*2 > total
		}
	}
	return m, nil
}
