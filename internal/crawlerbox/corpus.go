package crawlerbox

import (
	"context"
	"fmt"
	"sync"
)

// CorpusResult pairs one corpus message with its analysis outcome.
type CorpusResult struct {
	// Index is the message's position in the input slice.
	Index int
	// Analysis is the completed analysis (nil when Err is set).
	Analysis *MessageAnalysis
	// Err is the analysis failure, if any. A cancelled run reports the
	// context error for every message that had not completed.
	Err error
	// Skipped marks a spec that no worker ever started because the run was
	// cancelled first. Err still satisfies errors.Is(err, ctx.Err()), but a
	// skipped spec is distinguishable from one whose analysis was cut off
	// mid-flight.
	Skipped bool
}

// IndexedSpec pairs a message spec with its corpus index so streamed specs
// keep their position without the caller materializing a slice.
type IndexedSpec struct {
	Index int
	Spec  MessageSpec
}

// AnalyzeStream is the one worker pool over message specs: it drains specs
// with a bounded set of workers, runs each through analyze, and hands each
// result to sink as soon as it completes. The channel bounds how many specs
// are in flight, so peak memory is O(workers) no matter how many specs the
// producer sends. Batch runs pass (*Pipeline).Analyze; the ingest service
// passes its Analyzer.
//
// sink is called concurrently from the pool, but calls that share a worker
// index are serialized — a sink that only touches per-worker state (a
// per-worker census shard, say) needs no locking. Results are bitwise
// deterministic regardless of workers for the same reasons as
// AnalyzeCorpus: per-spec RNG streams keyed by spec.ID and private clock
// forks per analysis.
//
// On cancellation the pool keeps draining the channel (so the producer
// never blocks) and reports each unstarted spec as Skipped with a wrapped
// context error. AnalyzeStream returns once specs is closed and drained.
func AnalyzeStream(ctx context.Context, analyze func(context.Context, MessageSpec) (*MessageAnalysis, error),
	specs <-chan IndexedSpec, workers int, sink func(worker int, res CorpusResult)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for is := range specs {
				if ctx.Err() != nil {
					sink(w, CorpusResult{
						Index: is.Index,
						Err: fmt.Errorf("crawlerbox: corpus spec %d not started: %w",
							is.Spec.ID, ctx.Err()),
						Skipped: true,
					})
					continue
				}
				ma, err := analyze(ctx, is.Spec)
				sink(w, CorpusResult{Index: is.Index, Analysis: ma, Err: err})
			}
		}(w)
	}
	wg.Wait()
}

// AnalyzeCorpus analyzes a batch of messages with a bounded worker pool and
// returns the results in input order. It is the slice-backed convenience
// wrapper over AnalyzeStream with p.Analyze.
//
// Results are bitwise deterministic regardless of workers: each message's
// RNG stream is keyed by its spec.ID (not a shared counter), each analysis
// runs on its own fork of the virtual clock (so latency and event-loop time
// never cross analyses), and enrichment reads only the immutable background
// passive-DNS ledger. workers=1 degenerates to the serial loop; workers<1
// is treated as 1.
func (p *Pipeline) AnalyzeCorpus(ctx context.Context, specs []MessageSpec, workers int) []CorpusResult {
	results := make([]CorpusResult, len(specs))
	if workers > len(specs) {
		workers = len(specs)
	}
	ch := make(chan IndexedSpec, max(workers, 1))
	go func() {
		defer close(ch)
		for i := range specs {
			ch <- IndexedSpec{Index: i, Spec: specs[i]}
		}
	}()
	AnalyzeStream(ctx, p.Analyze, ch, workers, func(_ int, res CorpusResult) {
		results[res.Index] = res
	})
	return results
}
