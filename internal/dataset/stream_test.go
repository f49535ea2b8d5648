package dataset

import (
	"bytes"
	"testing"
)

// TestEachRendersDeterministically pins the plan/render split: rendering
// is a pure function of the plan, so a second Each pass over a corpus, and
// a pass over a second corpus of the same Config, yield exactly the same
// bytes and ground truth in the same order, and no pass leaves a rendered
// payload behind.
func TestEachRendersDeterministically(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.1}
	c, first := rendered(t, cfg)
	other, otherRaws := rendered(t, cfg)
	if len(first) != c.Len() || len(otherRaws) != other.Len() || c.Len() != other.Len() {
		t.Fatalf("lengths differ: %d rendered of %d, %d rendered of %d",
			len(first), c.Len(), len(otherRaws), other.Len())
	}

	seen := 0
	c.Each(func(i int, m *Message) bool {
		if !bytes.Equal(m.Raw, first[i]) {
			t.Fatalf("message %d: second Each pass renders different bytes", i)
		}
		if !bytes.Equal(m.Raw, otherRaws[i]) {
			t.Fatalf("message %d: a second corpus of the same Config renders different bytes", i)
		}
		want := &other.Messages[i]
		if m.Delivered != want.Delivered || m.Category != want.Category ||
			m.Carrier != want.Carrier || m.DomainIdx != want.DomainIdx ||
			m.Spear != want.Spear || m.Brand != want.Brand ||
			m.URL != want.URL || m.Noise != want.Noise {
			t.Fatalf("message %d: ground truth differs: %+v vs %+v", i, m, want)
		}
		seen++
		return true
	})
	if seen != c.Len() {
		t.Fatalf("Each visited %d of %d messages", seen, c.Len())
	}

	// The corpus must not have retained any rendered payloads.
	for i := range c.Messages {
		if c.Messages[i].Raw != nil {
			t.Fatalf("message %d: Raw retained after Each", i)
		}
	}
}

// TestEachEarlyStop checks the iterator honors a false return.
func TestEachEarlyStop(t *testing.T) {
	c, err := Stream(Config{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	c.Each(func(i int, m *Message) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("Each visited %d messages, want 3", visits)
	}
}
