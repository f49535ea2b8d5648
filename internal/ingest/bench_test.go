package ingest

import (
	"context"
	"path/filepath"
	"testing"

	"crawlerbox/internal/tracestore"
)

// BenchmarkIngestThroughput measures end-to-end service throughput: replay
// of a canned corpus log through the full pipeline with the dedup cache
// on, at the daemon's default worker count. Reported messages share
// landing domains at the paper's rate (mean 2.62 messages per domain), so
// the figure includes the cache's dedup savings.
func BenchmarkIngestThroughput(b *testing.B) {
	logPath := filepath.Join(b.TempDir(), "ingest.log")
	c, _ := buildWorld(b)
	specs := corpusSpecs(c)
	recordLog(b, logPath, specs)
	b.ReportMetric(float64(len(specs)), "msgs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, pipe := buildWorld(b)
		b.StartTimer()
		res, err := Replay(context.Background(), logPath, pipe, PipelineKeyer(pipe),
			WithWorkers(4))
		if err != nil {
			b.Fatal(err)
		}
		if res.Counters.CacheHits == 0 {
			b.Fatal("benchmark corpus produced no cache hits")
		}
	}
}

// BenchmarkVerdictCacheHit measures the cache-hit fast path in isolation:
// admission of a submission whose key's verdict is already stored — the
// cost of serving one deduplicated report, no pipeline involved.
func BenchmarkVerdictCacheHit(b *testing.B) {
	c, pipe := buildWorld(b)
	keyer := PipelineKeyer(pipe)

	// Pre-resolve keys so the benchmark targets admission, not the parser:
	// each submission's raw bytes are its key.
	var keys [][]byte
	for _, s := range corpusSpecs(c) {
		if k := keyer(s.Raw); k != "" {
			keys = append(keys, []byte(k))
		}
	}
	if len(keys) == 0 {
		b.Fatal("no keyable messages in corpus")
	}
	ctx := context.Background()
	svc := NewService(ctx, pipe, func(raw []byte) string { return string(raw) }, nil)
	svc.mu.Lock()
	for i, k := range keys {
		svc.cache.warm(string(k), int64(i+1), tracestore.Verdict{ID: int64(i + 1), Outcome: "credential-phish"})
	}
	svc.mu.Unlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Submit(ctx, Spec{ID: int64(i) + 1e6, Raw: keys[i%len(keys)]}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res, err := svc.Drain()
	if err != nil {
		b.Fatal(err)
	}
	if res.Counters.CacheHits != int64(b.N) {
		b.Fatalf("%d cache hits over %d submissions", res.Counters.CacheHits, b.N)
	}
}
