package report

import (
	"context"
	"errors"
	"testing"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/obs"
)

// TestStreamedAnalyzeWorkerIndependent pins the streamed half of the
// determinism contract: a corpus built by dataset.Stream (no retained
// Analyses, aggregates served purely from merged shards) renders every
// artifact byte-identically at workers=1 and workers=8. Run under -race
// this also exercises the producer/worker-shard handoff for data races.
func TestStreamedAnalyzeWorkerIndependent(t *testing.T) {
	renderAll := func(r *Run) []string {
		return []string{
			r.RenderDisposition(),
			r.RenderFigure2(),
			r.RenderTable2(),
			r.RenderFigure3(),
			r.RenderSpear(),
			r.RenderNonTargeted(),
			r.RenderCloaks(),
		}
	}
	analyze := func(workers int) []string {
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		run, err := Analyze(context.Background(), c, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if run.Analyses != nil {
			t.Fatalf("streamed run retained %d analyses", len(run.Analyses))
		}
		return renderAll(run)
	}

	serial := analyze(1)
	parallel := analyze(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("artifact %d diverges between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestAnalyzeSpecsCountsSkipped pins the run loop's cancellation
// accounting: once ctx is cancelled, specs the pool never started reach the
// sink marked Skipped, and their count lands in the observer's
// crawlerbox_corpus_skipped_total counter.
func TestAnalyzeSpecsCountsSkipped(t *testing.T) {
	c, err := dataset.Generate(dataset.Config{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	produce := func(send func(crawlerbox.IndexedSpec) bool) {
		for i := 0; i < 4; i++ {
			if !send(crawlerbox.IndexedSpec{Index: i, Spec: crawlerbox.MessageSpec{Raw: c.Messages[i].Raw, ID: int64(i + 1)}}) {
				return
			}
		}
	}
	skipped := 0
	sink := func(_ int, res crawlerbox.CorpusResult) {
		// The first result cancels the run while the next spec waits in
		// the queue.
		cancel()
		if res.Skipped {
			skipped++
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("skipped spec %d: err = %v, want context.Canceled", res.Index, res.Err)
			}
		}
	}
	o := obs.New()
	if err := AnalyzeSpecs(ctx, c, produce, sink, WithWorkers(1), WithObserver(o)); err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("no spec was skipped after cancellation")
	}
	var got float64
	for _, p := range o.Metrics.Snapshot() {
		if p.Name == "crawlerbox_corpus_skipped_total" {
			got = p.Value
		}
	}
	if got != float64(skipped) {
		t.Errorf("crawlerbox_corpus_skipped_total = %v, want %d", got, skipped)
	}
}
