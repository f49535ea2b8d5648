package memo

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
	"testing"
)

// check asserts the ring's invariants: at most its entries and its budget,
// the counters equal to what the live entries hold, and every free slot
// zeroed so an evicted key is not pinned.
func check[K, V any](t testing.TB, m *Memo[K, V]) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.r
	if r.n > len(r.slots) || r.bytes > m.budget {
		t.Fatalf("memo holds %d entries and %d B, caps %d and %d", r.n, r.bytes, len(r.slots), m.budget)
	}
	sum := 0
	for j := 0; j < len(r.slots); j++ {
		e := &r.slots[(r.oldest+j)%len(r.slots)]
		if j < r.n {
			sum += e.size
		} else if e.size != 0 || e.hash != 0 {
			t.Fatalf("free slot %d still holds an entry", j)
		}
	}
	if sum != r.bytes {
		t.Fatalf("memo counts %d B, its entries hold %d", r.bytes, sum)
	}
}

// get and put hash k once, as the memo's callers do.
func get[K, V any](m *Memo[K, V], k K) (V, bool) { return m.Get(m.Hash(k), k) }

func put[K, V any](m *Memo[K, V], k K, v V, size int) { m.Put(m.Hash(k), k, v, size) }

// keys returns the memo's keys, oldest first.
func keys[V any](m *Memo[string, V]) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for j := 0; j < m.r.n; j++ {
		out = append(out, m.r.slots[(m.r.oldest+j)%len(m.r.slots)].key)
	}
	return out
}

func TestFIFOOrder(t *testing.T) {
	m := Strings[int](3, 1<<10)
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		put(m, k, i, 1)
		check(t, m)
	}
	if got := strings.Join(keys(m), ""); got != "cde" {
		t.Fatalf("memo keeps %q, want the newest three, oldest first: cde", got)
	}
	for i, k := range []string{"a", "b"} {
		if _, ok := get(m, k); ok {
			t.Errorf("evicted key %d (%q) still hits", i, k)
		}
	}
	for want, k := range map[int]string{2: "c", 3: "d", 4: "e"} {
		if v, ok := get(m, k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %v; want %d", k, v, ok, want)
		}
	}
	// A hit does not refresh an entry: the oldest still goes first.
	put(m, "f", 5, 1)
	if got := strings.Join(keys(m), ""); got != "def" {
		t.Fatalf("memo keeps %q after a hit on c and one more Put, want def", got)
	}
}

func TestEntryCap(t *testing.T) {
	const entries = 16
	m := Strings[int](entries, 1<<20)
	for i := 0; i < 10*entries; i++ {
		put(m, fmt.Sprint("key ", i), i, 8)
		check(t, m)
		if n := m.Len(); n > entries {
			t.Fatalf("after %d Puts the memo holds %d entries, cap %d", i+1, n, entries)
		}
	}
	if n := m.Len(); n != entries {
		t.Fatalf("memo holds %d entries, want %d", n, entries)
	}
	for i := 9 * entries; i < 10*entries; i++ {
		if v, ok := get(m, fmt.Sprint("key ", i)); !ok || v != i {
			t.Errorf("recent key %d: Get = %d, %v", i, v, ok)
		}
	}
}

// Large keys reach the byte budget long before the entry cap.
func TestByteCap(t *testing.T) {
	const budget, size = 1 << 16, 10_000
	m := Bytes[int](64, budget)
	fits := budget / size
	for i := 0; i < 10*fits; i++ {
		k := bytes.Repeat([]byte{byte(i)}, size)
		put(m, k, i, len(k))
		check(t, m)
	}
	if n := m.Len(); n != fits {
		t.Fatalf("memo holds %d entries of %d B, want the %d its %d B budget fits", n, size, fits, budget)
	}
	last := bytes.Repeat([]byte{byte(10*fits - 1)}, size)
	if v, ok := get(m, last); !ok || v != 10*fits-1 {
		t.Fatalf("newest entry: Get = %d, %v", v, ok)
	}
}

func TestOverBudgetNotKept(t *testing.T) {
	m := Strings[int](4, 100)
	put(m, "small", 1, 10)
	put(m, "huge", 2, 101)
	check(t, m)
	if _, ok := get(m, "huge"); ok {
		t.Fatal("an entry over the whole budget was kept")
	}
	if v, ok := get(m, "small"); !ok || v != 1 {
		t.Fatal("an over-budget Put evicted what the memo held")
	}
	put(m, "exact", 3, 100)
	if v, ok := get(m, "exact"); !ok || v != 3 || m.Len() != 1 {
		t.Fatalf("an entry of exactly the budget: Get = %d, %v, Len %d", v, ok, m.Len())
	}
}

func TestRepeatPutKeepsFirst(t *testing.T) {
	m := Strings[string](4, 100)
	put(m, "k", "first", 5)
	put(m, "k", "second", 50)
	check(t, m)
	if v, ok := get(m, "k"); !ok || v != "first" {
		t.Fatalf("Get = %q, %v; want the first value", v, ok)
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("one key takes %d slots", n)
	}
}

// Keys whose hashes collide share nothing: a lookup compares the full key.
func TestHashAloneNeverMatches(t *testing.T) {
	m := newMemo[string, int](4, 100, func(maphash.Seed, string) uint64 { return 7 },
		func(a, b string) bool { return a == b })
	put(m, "a", 1, 1)
	if _, ok := get(m, "b"); ok {
		t.Fatal("a key with the same hash and other bytes hit")
	}
	put(m, "b", 2, 1)
	if va, _ := get(m, "a"); va != 1 {
		t.Fatalf("Get(a) = %d after a colliding Put", va)
	}
	if vb, _ := get(m, "b"); vb != 2 {
		t.Fatalf("Get(b) = %d", vb)
	}
}

// Run under -race (make race), this checks the locking: eight goroutines
// hit, miss and evict over more keys than the memo holds.
func TestConcurrent(t *testing.T) {
	m := Bytes[int](32, 1<<12)
	ks := make([][]byte, 96)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("key %03d %s", i, strings.Repeat("x", i)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := (round*(g+1) + g) % len(ks)
				if v, ok := get(m, ks[i]); ok && v != i {
					errs <- fmt.Sprintf("goroutine %d: key %d holds %d", g, i, v)
					return
				}
				put(m, ks[i], i, len(ks[i]))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	check(t, m)
}

func TestNoAllocations(t *testing.T) {
	m := Bytes[*int](8, 1<<10)
	v := new(int)
	ks := make([][]byte, 16)
	for i := range ks {
		ks[i] = []byte(fmt.Sprint("key ", i))
	}
	// A full ring, so every timed Put evicts: AllocsPerRun rounds down,
	// and a Put that allocated only when it evicted would otherwise pass.
	for _, k := range ks[:8] {
		put(m, k, v, 4)
	}
	i := 7
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"hit", func() { get(m, ks[0]) }},
		{"miss", func() { get(m, ks[15]) }},
		// Keys cycle through twice the capacity, so every Put inserts a
		// key the ring does not hold and evicts the oldest.
		{"put", func() { i++; put(m, ks[i%len(ks)], v, 4) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v times", c.name, n)
		}
	}

	s := Strings[int](8, 1<<10)
	put(s, "page", 1, 4)
	if n := testing.AllocsPerRun(100, func() { get(s, "page"); get(s, "other"); put(s, "page", 2, 4) }); n != 0 {
		t.Errorf("a string memo allocates %v times", n)
	}
}
