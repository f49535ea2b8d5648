package evstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.bin")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xAB}, 70_000), // spans the write buffer
		[]byte("last"),
	}
	handles := make([]Handle, len(payloads))
	for i, p := range payloads {
		h, err := s.Append(Kind(i%2+1), p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if !h.Valid() {
			t.Fatalf("append %d: invalid handle %+v", i, h)
		}
		handles[i] = h
	}
	// Reads on the writable store (flush + ReadAt path).
	for i, h := range handles {
		kind, got, err := s.At(h)
		if err != nil {
			t.Fatalf("writable At %d: %v", i, err)
		}
		if kind != Kind(i%2+1) || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("writable At %d: kind=%d len=%d", i, kind, len(got))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reads on the reopened read-only (mmap) store.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, h := range handles {
		kind, got, err := r.At(h)
		if err != nil {
			t.Fatalf("readonly At %d: %v", i, err)
		}
		if kind != Kind(i%2+1) || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("readonly At %d: kind=%d len=%d", i, kind, len(got))
		}
	}
	if _, err := r.Append(KindAnalysis, []byte("nope")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append on read-only store: %v", err)
	}

	// Full scan visits every record in append order.
	var scanned int
	if err := r.Each(func(h Handle, kind Kind, payload []byte) bool {
		if h != handles[scanned] || !bytes.Equal(payload, payloads[scanned]) {
			t.Fatalf("scan %d: handle %+v want %+v", scanned, h, handles[scanned])
		}
		scanned++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != len(payloads) {
		t.Fatalf("scanned %d records, want %d", scanned, len(payloads))
	}
}

func TestZeroHandleInvalid(t *testing.T) {
	var h Handle
	if h.Valid() {
		t.Fatal("zero handle must be invalid")
	}
	s, err := Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.At(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("At(zero) = %v, want ErrCorrupt", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.bin")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Append(KindAnalysis, []byte("evidence payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[h.Offset+recordHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.At(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("At on corrupted record = %v, want ErrCorrupt", err)
	}
	if err := r.Each(func(Handle, Kind, []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Each on corrupted store = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-ev.bin")
	if err := os.WriteFile(path, []byte("definitely not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Open(non-store) = %v, want ErrBadMagic", err)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "ev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 8, 50
	type tagged struct {
		h       Handle
		payload []byte
	}
	results := make(chan tagged, writers*perWriter)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				p := bytes.Repeat([]byte{byte(w)}, i+1)
				h, err := s.Append(KindExchange, p)
				if err != nil {
					t.Error(err)
					break
				}
				results <- tagged{h, p}
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	close(results)
	for r := range results {
		_, got, err := s.At(r.h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.payload) {
			t.Fatalf("payload mismatch at %+v", r.h)
		}
	}
}

// FuzzRecordRoundTrip pins the record codec: whatever payload and kind go
// in must come back intact through both the writable-read and scan paths.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint8(1), []byte("hello"))
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0xFF), bytes.Repeat([]byte{0x00}, 1024))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		s, err := Create(filepath.Join(t.TempDir(), "ev.bin"))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h, err := s.Append(Kind(kind), payload)
		if err != nil {
			t.Fatal(err)
		}
		gotKind, got, err := s.At(h)
		if err != nil {
			t.Fatal(err)
		}
		if gotKind != Kind(kind) || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: kind %d→%d, %d→%d bytes", kind, gotKind, len(payload), len(got))
		}
		var scans int
		if err := s.Each(func(sh Handle, sk Kind, sp []byte) bool {
			if sh != h || sk != Kind(kind) || !bytes.Equal(sp, payload) {
				t.Fatalf("scan mismatch: %+v vs %+v", sh, h)
			}
			scans++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if scans != 1 {
			t.Fatalf("scan visited %d records", scans)
		}
	})
}

// TestAppendPartsMatchesAppend pins that a record appended in parts is
// byte-for-byte the record Append writes for the joined payload: same
// framing, same checksum, same handle.
func TestAppendPartsMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	big := bytes.Repeat([]byte{0xCD}, 70_000) // spans the write buffer
	cases := [][][]byte{
		{[]byte("head"), []byte("body")},
		{[]byte("only")},
		{},
		{nil, []byte("x"), {}},
		{[]byte("hdr"), big},
	}
	joinedPath, partsPath := filepath.Join(dir, "joined.bin"), filepath.Join(dir, "parts.bin")
	joined, err := Create(joinedPath)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Create(partsPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		hj, err := joined.Append(KindIngestSpec, bytes.Join(c, nil))
		if err != nil {
			t.Fatal(err)
		}
		hp, err := parts.AppendParts(KindIngestSpec, c...)
		if err != nil {
			t.Fatal(err)
		}
		if hj != hp {
			t.Fatalf("case %d: handle %+v, want %+v", i, hp, hj)
		}
	}
	if err := joined.Close(); err != nil {
		t.Fatal(err)
	}
	if err := parts.Close(); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(joinedPath)
	b, _ := os.ReadFile(partsPath)
	if !bytes.Equal(a, b) {
		t.Fatal("AppendParts wrote a different file than Append of the joined payloads")
	}
	over, err := Create(filepath.Join(dir, "over.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if _, err := over.AppendParts(KindIngestSpec, make([]byte, MaxRecordSize), []byte("x")); err == nil {
		t.Fatal("AppendParts accepted a payload over MaxRecordSize")
	}
}
