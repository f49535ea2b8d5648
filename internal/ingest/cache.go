package ingest

import (
	"sync"

	"crawlerbox/internal/tracestore"
)

// cacheEntry is one canonical-URL key's state: a completed verdict, or a
// pending analysis with the IDs of later submissions waiting on it.
// Hit-or-miss is decided at admission time under the cache lock, so a
// key's second submission is always a hit — as a waiter while the first is
// in flight, or directly once it completed — and the hit/miss assignment
// is a pure function of submission order, independent of scheduling.
type cacheEntry struct {
	done     bool
	sourceID int64 // ID of the submission whose analysis fills the entry
	verdict  tracestore.Verdict
	waiters  []int64 // protected by the cache's mu
}

// verdictCache is the singleflight-with-memory dedup cache keyed by
// canonical URL: one map under one mutex, since admission is already
// serialized and completions come one per fresh analysis. It has no
// eviction: the workload's key space is the set of distinct landing URLs,
// which the paper's measurements put at roughly 1/2.62 of the message
// volume — the cache IS the scaling lever, not a bounded accelerator.
type verdictCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry // guarded by mu
}

func newVerdictCache() *verdictCache {
	return &verdictCache{entries: make(map[string]*cacheEntry)}
}

// admission classifies one keyed submission at admission time.
type admission int

const (
	// admitFresh: first submission of the key — run the pipeline.
	admitFresh admission = iota
	// admitWait: the key's analysis is in flight — the verdict will be
	// emitted when it completes.
	admitWait
	// admitHit: the key's verdict is stored — emit it now.
	admitHit
)

// admit records submission id under key and reports how to proceed. For
// admitHit the completed entry's verdict and source ID are returned.
func (c *verdictCache) admit(key string, id int64) (admission, tracestore.Verdict, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		c.entries[key] = &cacheEntry{sourceID: id}
		return admitFresh, tracestore.Verdict{}, 0
	}
	if e.done {
		return admitHit, e.verdict, e.sourceID
	}
	e.waiters = append(e.waiters, id)
	return admitWait, tracestore.Verdict{}, 0
}

// complete stores the key's verdict and returns the waiters to flush,
// with the source ID the cached emissions should reference.
func (c *verdictCache) complete(key string, v tracestore.Verdict) (waiters []int64, sourceID int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.done {
		return nil, 0
	}
	e.done = true
	e.verdict = v
	waiters = e.waiters
	e.waiters = nil
	return waiters, e.sourceID
}

// warm installs a completed verdict, as when resuming from a checkpoint:
// a fresh done record seeds the cache so the key's remaining submissions
// hit without re-analysis.
func (c *verdictCache) warm(key string, sourceID int64, v tracestore.Verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] == nil {
		c.entries[key] = &cacheEntry{done: true, sourceID: sourceID, verdict: v}
	}
}

// has reports whether key has an entry, in flight or stored: admit of a
// key without one is admitFresh.
func (c *verdictCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}
