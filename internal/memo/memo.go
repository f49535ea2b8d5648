// Package memo is the bounded memo behind the pipeline's repeat work: the
// parse of a message reported again, the syntax tree of a kit script run on
// another page, the signature of a cloned landing page. Its keys are
// attacker-sized (raw messages, script sources, display lists), so a memo
// is bounded twice by its configuration: a fixed ring of entries, and a
// byte budget over the sizes its callers assign to them.
package memo

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// _seed keys every memo's hash. It is drawn per process, so inputs cannot
// be crafted to collide.
var _seed = maphash.MakeSeed()

// Memo remembers recent values by key, evicting first in, first out. An
// entry matches only a key with the same hash and an equal full key, never
// the hash alone. A caller hashes a key once (Hash) and hands the hash to
// Get and, on a miss, to Put. One mutex guards the ring; the work a value
// stands for runs outside it, so two goroutines that miss on one key both
// compute it and the first Put wins. Get and Put allocate nothing.
type Memo[K, V any] struct {
	hash   func(maphash.Seed, K) uint64
	equal  func(a, b K) bool
	budget int

	mu sync.Mutex
	r  ring[K, V] // guarded by mu
}

// ring is a memo's entries in insertion order: the oldest at
// slots[oldest], then the n-1 after it, wrapping around.
type ring[K, V any] struct {
	slots  []entry[K, V]
	oldest int
	n      int
	bytes  int // sum of the entries' sizes
}

type entry[K, V any] struct {
	hash uint64
	key  K
	val  V
	size int
}

// Bytes returns a memo keyed by byte slices, compared by content, of at
// most entries values whose sizes sum to at most budget.
func Bytes[V any](entries, budget int) *Memo[[]byte, V] {
	return newMemo[[]byte, V](entries, budget, maphash.Bytes, bytes.Equal)
}

// Strings returns a memo keyed by strings, of at most entries values whose
// sizes sum to at most budget.
func Strings[V any](entries, budget int) *Memo[string, V] {
	return newMemo[string, V](entries, budget, maphash.String, func(a, b string) bool { return a == b })
}

func newMemo[K, V any](entries, budget int, hash func(maphash.Seed, K) uint64, equal func(a, b K) bool) *Memo[K, V] {
	if entries < 1 {
		panic("memo: a memo needs at least one entry")
	}
	return &Memo[K, V]{hash: hash, equal: equal, budget: budget, r: ring[K, V]{slots: make([]entry[K, V], entries)}}
}

// Hash returns k's hash, for Get and Put. Equal keys hash alike within a
// process, so a copy of k may be put under the hash of k.
func (m *Memo[K, V]) Hash(k K) uint64 {
	return m.hash(_seed, k)
}

// Get returns the value memoised under k, whose hash is h.
func (m *Memo[K, V]) Get(h uint64, k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.r.find(h, k, m.equal); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put memoises v under k, whose hash is h, counting size against the
// budget and evicting the oldest entries until it fits. A value larger
// than the whole budget is not kept, and neither is a second value for a
// key the memo holds. The memo keeps k as given: a caller whose key may
// change afterwards passes a copy.
func (m *Memo[K, V]) Put(h uint64, k K, v V, size int) {
	if size > m.budget {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.r
	if r.find(h, k, m.equal) != nil {
		return
	}
	for r.n == len(r.slots) || r.bytes+size > m.budget {
		r.bytes -= r.slots[r.oldest].size
		r.slots[r.oldest] = entry[K, V]{}
		r.oldest = (r.oldest + 1) % len(r.slots)
		r.n--
	}
	r.slots[(r.oldest+r.n)%len(r.slots)] = entry[K, V]{hash: h, key: k, val: v, size: size}
	r.n++
	r.bytes += size
}

// Len reports how many values the memo holds.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.n
}

// find returns k's entry, or nil.
func (r *ring[K, V]) find(h uint64, k K, equal func(a, b K) bool) *entry[K, V] {
	for j, i := 0, r.oldest; j < r.n; j, i = j+1, i+1 {
		if i == len(r.slots) {
			i = 0
		}
		if e := &r.slots[i]; e.hash == h && equal(e.key, k) {
			return e
		}
	}
	return nil
}
