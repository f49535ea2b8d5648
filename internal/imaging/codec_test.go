package imaging

import (
	"bytes"
	"testing"
)

// AppendCBI writes the bytes EncodeCBI returns after whatever dst holds,
// over any stale bytes in dst's spare capacity, and they decode back to
// the image.
func TestAppendCBIMatchesEncodeCBI(t *testing.T) {
	img := MustNew(7, 5, RGB{R: 10, G: 20, B: 30})
	img.Set(3, 2, RGB{R: 200, G: 100, B: 50})
	want := EncodeCBI(img)
	if len(want) != CBILen(img) || !IsCBI(want) {
		t.Fatalf("EncodeCBI gave %d bytes, CBILen %d", len(want), CBILen(img))
	}
	buf := bytes.Repeat([]byte{0xAA}, 2*len(want))[:3]
	got := AppendCBI(buf, img)
	if !bytes.Equal(got[:3], []byte{0xAA, 0xAA, 0xAA}) || !bytes.Equal(got[3:], want) {
		t.Fatalf("AppendCBI after a prefix:\n got %x\nwant AAAAAA%x", got, want)
	}
	dec, err := DecodeCBI(got[3:], nil)
	if err != nil || !dec.Equal(img) {
		t.Fatalf("round trip: %v", err)
	}
	if got := AppendCBI(nil, img); !bytes.Equal(got, want) {
		t.Fatal("AppendCBI into a nil buffer differs from EncodeCBI")
	}
}
