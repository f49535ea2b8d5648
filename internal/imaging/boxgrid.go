package imaging

import "math"

// signSegs bounds the column segments of boxGrids: the two grids have
// phashSide+1 and dhashW+1 boundaries and share at least 0 and W.
const signSegs = phashSide + dhashW

// boxGrids writes into p and d what ResizeBox(32, 32) and ResizeBox(9, 8)
// return for img, in a single pass over its pixels. It requires img.W and
// img.H to be at least 32, so that each grid's cells partition the image:
// cell (x, y) of a w x h grid covers columns [x*W/w, (x+1)*W/w) and rows
// [y*H/h, (y+1)*H/h), as in ResizeBox.
//
// Each row is cut at every column boundary of either grid. A segment
// between two cuts lies in one cell of each grid, so its channel sums are
// taken once and go to both. Rows are summed into a slab until a band of
// either grid ends; the slab's segment sums are then added to both grids'
// band sums, and a finished band is averaged. The sums are exact integers
// and every cell is averaged over the same pixel count ResizeBox uses, so
// each channel is bit-identical to its ResizeBox value.
func boxGrids(img *Image, p *[phashSide * phashSide]RGB, d *[dhashW * dhashH]RGB) {
	var (
		cuts      [signSegs + 1]int
		row, slab [3 * signSegs]int
		grids     [2]boxGrid
	)
	// Merge the two grids' column boundaries into one ascending list.
	segs := cuts[:0]
	for i, j := 0, 0; i <= phashSide || j <= dhashW; {
		a, b := math.MaxInt, math.MaxInt
		if i <= phashSide {
			a = i * img.W / phashSide
		}
		if j <= dhashW {
			b = j * img.W / dhashW
		}
		x := min(a, b)
		if a == x {
			i++
		}
		if b == x {
			j++
		}
		segs = append(segs, x)
	}
	grids[0].init(phashSide, phashSide, segs, img.W, img.H)
	grids[1].init(dhashW, dhashH, segs, img.W, img.H)
	outs := [2][]RGB{p[:], d[:]}

	// reps counts the rows whose prefixes are in row but not yet in slab.
	// Rendered pages are mostly flat, so a row often repeats the one above
	// it; a repeat only bumps reps.
	reps := 0
	for y := 0; y < img.H; y++ {
		px := img.Pix[y*img.W : (y+1)*img.W]
		if y > 0 && rowsEqual(px, img.Pix[(y-1)*img.W:y*img.W]) {
			reps++
		} else {
			addRows(&slab, &row, reps)
			rowPrefixes(px, segs, &row)
			reps = 1
		}
		if y+1 != grids[0].end && y+1 != grids[1].end {
			continue
		}
		addRows(&slab, &row, reps)
		reps = 0
		for i := range grids {
			g := &grids[i]
			g.addSlab(&slab)
			if y+1 == g.end {
				g.finishBand(outs[i], img.H)
			}
		}
		clear(slab[:])
	}
}

// boxGrid accumulates one output grid of boxGrids.
type boxGrid struct {
	cols, rows int
	// last is, per cell column, the segment that ends at the column's
	// right edge; span is the column's source width.
	last [phashSide]int
	span [phashSide]int
	// sum holds the channel sums of the band of cells in progress, which
	// is cell row band and ends before source row end.
	sum       [3 * phashSide]int
	band, end int
}

func (g *boxGrid) init(cols, rows int, cuts []int, w, h int) {
	g.cols, g.rows = cols, rows
	s := 0
	for x := 0; x < cols; x++ {
		right := (x + 1) * w / cols
		for cuts[s+1] != right {
			s++
		}
		g.last[x] = s
		g.span[x] = right - x*w/cols
	}
	g.end = h / rows
}

// addSlab adds a slab to the band in progress. The slab holds, per
// segment, the channel sums of everything up to the segment's right edge,
// so a cell column is the difference of the prefixes at its two edges.
func (g *boxGrid) addSlab(slab *[3 * signSegs]int) {
	var prevR, prevG, prevB int
	for x, s := range g.last[:g.cols] {
		r, gr, b := slab[3*s], slab[3*s+1], slab[3*s+2]
		g.sum[3*x] += r - prevR
		g.sum[3*x+1] += gr - prevG
		g.sum[3*x+2] += b - prevB
		prevR, prevG, prevB = r, gr, b
	}
}

// finishBand averages the band in progress into its row of cells in out,
// rounding each mean the way ResizeBox does, and starts the next band.
// Neighbouring cells of a flat page have equal sums, so a cell whose sums
// and pixel count repeat the previous cell's reuses its colour.
func (g *boxGrid) finishBand(out []RGB, h int) {
	bandH := (g.band+1)*h/g.rows - g.band*h/g.rows
	out = out[g.band*g.cols : (g.band+1)*g.cols]
	var last [4]int
	var c RGB
	for x := range out {
		key := [4]int{g.sum[3*x], g.sum[3*x+1], g.sum[3*x+2], g.span[x]}
		if x == 0 || key != last {
			fn := float64(g.span[x] * bandH)
			last, c = key, RGB{
				R: clampU8(int(math.Round(float64(key[0]) / fn))),
				G: clampU8(int(math.Round(float64(key[1]) / fn))),
				B: clampU8(int(math.Round(float64(key[2]) / fn))),
			}
		}
		out[x] = c
	}
	clear(g.sum[:])
	g.band++
	g.end = (g.band + 1) * h / g.rows
}

// addRows adds n copies of row to slab.
func addRows(slab, row *[3 * signSegs]int, n int) {
	if n == 0 {
		return
	}
	for i := range slab {
		slab[i] += n * row[i]
	}
}

// rowPrefixes stores, for each segment s between cuts[s] and cuts[s+1],
// the per-channel sums of row[:cuts[s+1]] at out[3*s:3*s+3].
func rowPrefixes(row []RGB, cuts []int, out *[3 * signSegs]int) {
	var r, g, b int
	for s := range len(cuts) - 1 {
		for _, c := range row[cuts[s]:cuts[s+1]] {
			r += int(c.R)
			g += int(c.G)
			b += int(c.B)
		}
		out[3*s] = r
		out[3*s+1] = g
		out[3*s+2] = b
	}
}

// rowsEqual reports whether two rows of equal length hold the same pixels.
// It compares fixed-size blocks as arrays, which compiles to a memory
// comparison, and the remainder pixel by pixel.
func rowsEqual(a, b []RGB) bool {
	for len(a) >= 256 {
		if *(*[256]RGB)(a) != *(*[256]RGB)(b) {
			return false
		}
		a, b = a[256:], b[256:]
	}
	for len(a) >= 16 {
		if *(*[16]RGB)(a) != *(*[16]RGB)(b) {
			return false
		}
		a, b = a[16:], b[16:]
	}
	for i, c := range a {
		if c != b[i] {
			return false
		}
	}
	return true
}
