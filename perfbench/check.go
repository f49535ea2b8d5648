package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"crawlerbox/internal/ingest"
	"crawlerbox/internal/tracestore"
)

// checkReplay verifies a replay result against its log: every spec is
// emitted exactly once and the counters account for every submission.
func checkReplay(res *ingest.Result, in *logInfo) error {
	want := len(in.pending) + in.resumed
	if len(res.Emitted) != want {
		return fmt.Errorf("emitted %d verdicts for %d specs", len(res.Emitted), want)
	}
	for i := 1; i < len(res.Emitted); i++ {
		if res.Emitted[i].ID == res.Emitted[i-1].ID {
			return fmt.Errorf("message %d emitted twice", res.Emitted[i].ID)
		}
	}
	pending := make(map[int64]bool, len(in.pending))
	for _, id := range in.pending {
		pending[id] = true
	}
	fresh, cached := 0, 0
	for _, e := range res.Emitted {
		if !pending[e.ID] {
			continue
		}
		delete(pending, e.ID)
		if e.Provenance == ingest.ProvenanceFresh {
			fresh++
		} else {
			cached++
		}
	}
	if len(pending) != 0 {
		return fmt.Errorf("%d submitted messages have no verdict", len(pending))
	}
	c := res.Counters
	switch {
	case c.Submitted != int64(want):
		return fmt.Errorf("counters: submitted %d, want %d", c.Submitted, want)
	case c.Resumed != int64(in.resumed):
		return fmt.Errorf("counters: resumed %d, want %d", c.Resumed, in.resumed)
	case c.Fresh+c.CacheHits != c.Submitted:
		return fmt.Errorf("counters: fresh %d + cache hits %d != submitted %d", c.Fresh, c.CacheHits, c.Submitted)
	case c.Rejected != 0:
		return fmt.Errorf("counters: %d rejected", c.Rejected)
	case in.resumed == 0 && (c.Fresh != int64(fresh) || c.CacheHits != int64(cached)):
		return fmt.Errorf("counters: fresh %d / cache hits %d, emissions say %d / %d", c.Fresh, c.CacheHits, fresh, cached)
	}
	return nil
}

// sameVerdict reports whether two verdict rows are equal, ignoring the
// message ID a cached re-emission rewrites.
func sameVerdict(a, b tracestore.Verdict) bool {
	a.ID, b.ID = 0, 0
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// byID indexes emissions by message ID.
func byID(em []ingest.Emitted) map[int64]ingest.Emitted {
	m := make(map[int64]ingest.Emitted, len(em))
	for _, e := range em {
		m[e.ID] = e
	}
	return m
}

// checkCachedSources verifies that every cached emission carries exactly
// the verdict of the emission it names as its source.
func checkCachedSources(em []ingest.Emitted) error {
	all := byID(em)
	for _, e := range em {
		if e.Provenance != ingest.ProvenanceCached {
			continue
		}
		src, ok := all[e.CachedFrom]
		if !ok {
			return fmt.Errorf("message %d: cached from unknown message %d", e.ID, e.CachedFrom)
		}
		if !sameVerdict(e.Verdict, src.Verdict) || e.Key != src.Key {
			return fmt.Errorf("message %d: cached verdict differs from its source %d", e.ID, e.CachedFrom)
		}
	}
	return nil
}

// checkRereports verifies that each re-report got its original's verdict
// and, because the original is already in the cache, got it from the cache.
func checkRereports(em []ingest.Emitted, origin map[int64]int64) error {
	all := byID(em)
	for id, orig := range origin {
		e, ok := all[id]
		if !ok {
			return fmt.Errorf("re-report %d: no verdict", id)
		}
		if e.Provenance != ingest.ProvenanceCached {
			return fmt.Errorf("re-report %d of %d: %s verdict, want cached", id, orig, e.Provenance)
		}
		if !sameVerdict(e.Verdict, all[orig].Verdict) {
			return fmt.Errorf("re-report %d: verdict differs from its original %d", id, orig)
		}
	}
	return checkCachedSources(em)
}

// checkBatch verifies a batch run's triage segment: one row per message,
// each re-adjudicating to itself, with the outcome and error kind the
// reference replay gave the same message.
func checkBatch(segPath string, ref *ingest.Result) error {
	st, err := tracestore.Open(segPath)
	if err != nil {
		return err
	}
	defer st.Close()
	if st.Len() != len(ref.Emitted) {
		return fmt.Errorf("batch segment holds %d verdicts, replay emitted %d", st.Len(), len(ref.Emitted))
	}
	for _, e := range ref.Emitted {
		v, err := st.Verdict(e.ID)
		if err != nil {
			return fmt.Errorf("batch verdict %d: %w", e.ID, err)
		}
		if v.Outcome != e.Verdict.Outcome || v.ErrorKind != e.Verdict.ErrorKind {
			return fmt.Errorf("message %d: batch %s/%s, replay %s/%s",
				e.ID, v.Outcome, v.ErrorKind, e.Verdict.Outcome, e.Verdict.ErrorKind)
		}
		r, err := st.Readjudicate(e.ID)
		if err != nil {
			return fmt.Errorf("readjudicate %d: %w", e.ID, err)
		}
		if !r.Match {
			return fmt.Errorf("message %d: stored %s/%s re-adjudicates to %s/%s",
				e.ID, r.StoredOutcome, r.StoredErrorKind, r.Outcome, r.ErrorKind)
		}
	}
	return nil
}

// checkDaemon verifies the daemon's verdicts against the reference replay
// of the same specs: the same emission, provenance and verdict row.
func checkDaemon(got map[int64]ingest.Emitted, ref *ingest.Result) error {
	want := byID(ref.Emitted)
	for id, e := range got {
		w, ok := want[id]
		if !ok {
			return fmt.Errorf("daemon verdict for unsubmitted message %d", id)
		}
		if e.Provenance != w.Provenance || e.CachedFrom != w.CachedFrom || e.Key != w.Key || !sameVerdict(e.Verdict, w.Verdict) || e.Verdict.ID != id {
			return fmt.Errorf("message %d: daemon verdict differs from replay", id)
		}
	}
	return nil
}
