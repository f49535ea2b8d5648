package ingest

import "crawlerbox/internal/tracestore"

// cacheEntry is one canonical-URL key's state: a completed verdict, or a
// pending analysis with the IDs of later submissions waiting on it.
// Hit-or-miss is decided at admission time under the service lock, so a
// key's second submission is always a hit — as a waiter while the first is
// in flight, or directly once it completed — and the hit/miss assignment
// is a pure function of submission order, independent of scheduling.
type cacheEntry struct {
	done     bool
	sourceID int64 // ID of the submission whose analysis fills the entry
	verdict  tracestore.Verdict
	waiters  []int64
}

// verdictCache is the singleflight-with-memory dedup cache keyed by
// canonical URL: a plain map, touched only with Service.mu held, since
// admission is already serialized and completions come one per fresh
// analysis. Admission adds a key's entry (Service.submitLocked). It has
// no eviction: the workload's key space is the set of distinct landing
// URLs, which the paper's measurements put at roughly 1/2.62 of the
// message volume — the cache IS the scaling lever, not a bounded
// accelerator.
type verdictCache map[string]*cacheEntry

// complete stores the key's verdict and returns the waiters to flush.
func (c verdictCache) complete(key string, v tracestore.Verdict) []int64 {
	e := c[key]
	if e == nil || e.done {
		return nil
	}
	e.done = true
	e.verdict = v
	waiters := e.waiters
	e.waiters = nil
	return waiters
}

// warm installs a completed verdict, as when resuming from a checkpoint:
// a fresh done record seeds the cache so the key's remaining submissions
// hit without re-analysis.
func (c verdictCache) warm(key string, sourceID int64, v tracestore.Verdict) {
	if c[key] == nil {
		c[key] = &cacheEntry{done: true, sourceID: sourceID, verdict: v}
	}
}
