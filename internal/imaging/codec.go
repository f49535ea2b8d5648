package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The CBI ("CrawlerBox Image") format is a trivial uncompressed raster
// container: a 4-byte magic, width and height as big-endian uint32, then
// packed RGB triples. It stands in for the PNG/JPEG attachments of the
// original corpus so that the parsing phase exercises a real binary
// decode path, including magic-number sniffing for
// application/octet-stream parts.

// CBIMagic is the file signature of the CBI raster format.
var CBIMagic = []byte{'C', 'B', 'I', 'M'}

// ErrNotCBI is returned when decoding bytes that are not a CBI image.
var ErrNotCBI = errors.New("imaging: not a CBI image")

// EncodeCBI serializes an image to the CBI byte format.
func EncodeCBI(img *Image) []byte {
	return AppendCBI(make([]byte, 0, CBILen(img)), img)
}

// CBILen is the length of img's CBI encoding.
func CBILen(img *Image) int { return 12 + 3*len(img.Pix) }

// AppendCBI appends img's CBI encoding to dst and returns the extended
// slice. It writes straight into dst's spare capacity, so a caller that
// reuses one buffer encodes without an intermediate copy.
func AppendCBI(dst []byte, img *Image) []byte {
	n, size := len(dst), CBILen(img)
	dst = slices.Grow(dst, size)[:n+size]
	out := dst[n:]
	copy(out, CBIMagic)
	binary.BigEndian.PutUint32(out[4:8], uint32(img.W))
	binary.BigEndian.PutUint32(out[8:12], uint32(img.H))
	px := out[12:size]
	for i, p := range img.Pix {
		q := px[3*i : 3*i+3 : 3*i+3]
		q[0], q[1], q[2] = p.R, p.G, p.B
	}
	return dst
}

// DecodeCBI parses CBI bytes back into an image. The pixels are written
// into pix when its capacity holds them, and into a fresh slice otherwise,
// so a caller that decodes many images can hand back the Pix of one it is
// done with; nil always allocates.
func DecodeCBI(data []byte, pix []RGB) (*Image, error) {
	if len(data) < 12 || string(data[:4]) != string(CBIMagic) {
		return nil, ErrNotCBI
	}
	w := int(binary.BigEndian.Uint32(data[4:8]))
	h := int(binary.BigEndian.Uint32(data[8:12]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("imaging: implausible CBI dimensions %dx%d", w, h)
	}
	need := 12 + 3*w*h
	if len(data) < need {
		return nil, fmt.Errorf("imaging: truncated CBI: have %d bytes, need %d", len(data), need)
	}
	if cap(pix) < w*h {
		pix = make([]RGB, w*h)
	}
	img := &Image{W: w, H: h, Pix: pix[:w*h]}
	for i := range img.Pix {
		off := 12 + 3*i
		img.Pix[i] = RGB{R: data[off], G: data[off+1], B: data[off+2]}
	}
	return img, nil
}

// IsCBI sniffs the CBI magic number, the way the pipeline classifies
// application/octet-stream attachments.
func IsCBI(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == string(CBIMagic)
}
