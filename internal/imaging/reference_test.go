package imaging

import (
	"math"
	"slices"
)

// This file keeps the straightforward per-pixel raster kernels that the
// optimised ones in image.go, hash.go and boxgrid.go replaced. They are
// the specification: the differential tests and fuzz targets in
// kernels_test.go require the optimised kernels to reproduce them bit for
// bit.

// refNew stores fill into every pixel one at a time.
func refNew(w, h int, fill RGB) *Image {
	img := &Image{W: w, H: h, Pix: make([]RGB, w*h)}
	for i := range img.Pix {
		img.Pix[i] = fill
	}
	return img
}

// refFillRect fills [x0,x1) x [y0,y1), clipped, one pixel at a time.
func refFillRect(m *Image, x0, y0, x1, y1 int, c RGB) {
	for y := max(0, y0); y < min(m.H, y1); y++ {
		for x := max(0, x0); x < min(m.W, x1); x++ {
			m.Pix[y*m.W+x] = c
		}
	}
}

// refResizeBox is the area-averaging downsample, cell by cell.
func refResizeBox(m *Image, w, h int) *Image {
	out := &Image{W: w, H: h, Pix: make([]RGB, w*h)}
	for y := 0; y < h; y++ {
		sy0 := y * m.H / h
		sy1 := (y + 1) * m.H / h
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		for x := 0; x < w; x++ {
			sx0 := x * m.W / w
			sx1 := (x + 1) * m.W / w
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			var r, g, b, n int
			for sy := sy0; sy < sy1 && sy < m.H; sy++ {
				row := m.Pix[sy*m.W+sx0 : sy*m.W+min(sx1, m.W)]
				for _, c := range row {
					r += int(c.R)
					g += int(c.G)
					b += int(c.B)
				}
				n += len(row)
			}
			if n == 0 {
				n = 1
			}
			fn := float64(n)
			out.Pix[y*w+x] = RGB{
				R: clampU8(int(math.Round(float64(r) / fn))),
				G: clampU8(int(math.Round(float64(g) / fn))),
				B: clampU8(int(math.Round(float64(b) / fn))),
			}
		}
	}
	return out
}

// refDCT2D is the full 32x32 separable DCT-II: every row frequency of
// every row, then every column frequency of every column.
func refDCT2D(data *[phashSide * phashSide]float64) *[phashSide * phashSide]float64 {
	const side = phashSide
	var tmp, out [side * side]float64
	for y := 0; y < side; y++ {
		row := data[y*side : (y+1)*side]
		for k := 0; k < side; k++ {
			cos := phashCos[k*side : (k+1)*side]
			var sum float64
			for n := 0; n < side; n++ {
				sum += row[n] * cos[n]
			}
			tmp[y*side+k] = sum
		}
	}
	for x := 0; x < side; x++ {
		for k := 0; k < side; k++ {
			cos := phashCos[k*side : (k+1)*side]
			var sum float64
			for n := 0; n < side; n++ {
				sum += tmp[n*side+x] * cos[n]
			}
			out[k*side+x] = sum
		}
	}
	return &out
}

// refPHash is PHash over refResizeBox and refDCT2D.
func refPHash(img *Image) uint64 {
	const side = phashSide
	small := refResizeBox(img, side, side)
	var gray [side * side]float64
	for i, c := range small.Pix {
		gray[i] = 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
	}
	freq := refDCT2D(&gray)
	var coeffs [63]float64
	i := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x == 0 && y == 0 {
				continue
			}
			coeffs[i] = freq[y*side+x]
			i++
		}
	}
	sorted := coeffs
	slices.Sort(sorted[:])
	med := sorted[31]
	var hash uint64
	bit := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x == 0 && y == 0 {
				bit++
				continue
			}
			if freq[y*side+x] > med {
				hash |= 1 << uint(bit)
			}
			bit++
		}
	}
	return hash
}

// refDHash is DHash over refResizeBox.
func refDHash(img *Image) uint64 {
	small := refResizeBox(img, 9, 8)
	const deadZone = 2.0
	var hash uint64
	bit := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if small.Gray(x, y) > small.Gray(x+1, y)+deadZone {
				hash |= 1 << uint(bit)
			}
			bit++
		}
	}
	return hash
}

// refHueRotate applies the hue-rotate matrix to every pixel in turn.
func refHueRotate(m *Image, degrees float64) {
	rad := degrees * math.Pi / 180
	cosA, sinA := math.Cos(rad), math.Sin(rad)
	a00 := 0.213 + cosA*0.787 - sinA*0.213
	a01 := 0.715 - cosA*0.715 - sinA*0.715
	a02 := 0.072 - cosA*0.072 + sinA*0.928
	a10 := 0.213 - cosA*0.213 + sinA*0.143
	a11 := 0.715 + cosA*0.285 + sinA*0.140
	a12 := 0.072 - cosA*0.072 - sinA*0.283
	a20 := 0.213 - cosA*0.213 - sinA*0.787
	a21 := 0.715 - cosA*0.715 + sinA*0.715
	a22 := 0.072 + cosA*0.928 + sinA*0.072
	for i := range m.Pix {
		r := float64(m.Pix[i].R)
		g := float64(m.Pix[i].G)
		b := float64(m.Pix[i].B)
		m.Pix[i] = RGB{
			R: clampU8(int(math.Round(a00*r + a01*g + a02*b))),
			G: clampU8(int(math.Round(a10*r + a11*g + a12*b))),
			B: clampU8(int(math.Round(a20*r + a21*g + a22*b))),
		}
	}
}
