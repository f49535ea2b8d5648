package report

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/resilience"
)

// TestAnalyzeSpecsCommitsInSpecOrder pins the run loop's commit order: at
// eight workers the sink sees every spec once, in ascending index order,
// one call at a time (the sink appends without a lock, so under -race an
// overlap would fail the run). A run cancelled midway commits in the same
// order, the Skipped results of the specs no worker started included: its
// first commit waits until the producer has filled the queue behind the
// eight running specs, then cancels, so at least eight queued specs are
// never started.
func TestAnalyzeSpecsCommitsInSpecOrder(t *testing.T) {
	const workers, n = 8, 48
	at := time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC)
	for _, cancelled := range []bool{false, true} {
		c, err := dataset.Stream(dataset.Config{Seed: 7, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		queued := make(chan struct{})
		produce := func(send func(crawlerbox.IndexedSpec) bool) {
			c.Each(func(i int, m *dataset.Message) bool {
				if !send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: at}}) {
					return false
				}
				if i+1 == 2*workers {
					close(queued)
				}
				return i+1 < n
			})
		}
		var order []int
		skipped := 0
		sink := func(res crawlerbox.CorpusResult) {
			order = append(order, res.Index)
			if res.Skipped {
				skipped++
			}
			if cancelled && res.Index == 0 {
				<-queued
				cancel()
			}
		}
		if err := AnalyzeSpecs(ctx, c, produce, sink, WithWorkers(workers)); err != nil {
			t.Fatal(err)
		}
		cancel()
		for i, idx := range order {
			if idx != i {
				t.Fatalf("cancelled=%v: commit %d has spec index %d; order %v", cancelled, i, idx, order)
			}
		}
		switch {
		case !cancelled && len(order) != n:
			t.Errorf("uncancelled run committed %d results, want %d", len(order), n)
		case cancelled && skipped < workers:
			t.Errorf("cancelled run committed %d Skipped results of %d, want at least %d", skipped, len(order), workers)
		}
	}
}

// TestEvidenceAnalysisRecordsWorkerIndependent pins the evidence store's
// analysis records to spec order: over the evidencecheck corpus (the first
// 40 messages at cmd/crawlerbox's fixed analysis time, 10% injected
// faults), a store written at eight workers holds
// the same KindAnalysis records as one written at one worker, record for
// record and in the same order. Exchange records are still appended as the
// exchanges happen, so the whole store is pinned at one worker only.
func TestEvidenceAnalysisRecordsWorkerIndependent(t *testing.T) {
	at := time.Date(2024, 11, 1, 0, 0, 0, 0, time.UTC)
	records := func(workers int) [][]byte {
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		policy := resilience.DefaultPolicy()
		policy.FaultRate = 0.1
		produce := func(send func(crawlerbox.IndexedSpec) bool) {
			c.Each(func(i int, m *dataset.Message) bool {
				return i < 40 &&
					send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{Raw: m.Raw, ID: int64(i + 1), At: at}})
			})
		}
		path := filepath.Join(t.TempDir(), "evidence.store")
		if err := AnalyzeSpecs(context.Background(), c, produce, func(crawlerbox.CorpusResult) {},
			WithWorkers(workers), WithResilience(policy), WithEvidencePath(path)); err != nil {
			t.Fatal(err)
		}
		store, err := evstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		var out [][]byte
		if err := store.Each(func(_ evstore.Handle, kind evstore.Kind, payload []byte) bool {
			if kind == evstore.KindAnalysis {
				out = append(out, bytes.Clone(payload))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := records(1), records(8)
	if len(want) == 0 {
		t.Fatal("the one-worker store holds no analysis record")
	}
	if len(got) != len(want) {
		t.Fatalf("eight workers wrote %d analysis records, one worker %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("analysis record %d differs between one and eight workers", i)
		}
	}
}
