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

	// Pre-resolve keys so the benchmark targets the cache, not the parser.
	var keys []string
	for _, s := range corpusSpecs(c) {
		if k := keyer(s.Raw); k != "" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		b.Fatal("no keyable messages in corpus")
	}
	cache := newVerdictCache()
	for i, k := range keys {
		cache.warm(k, int64(i+1), tracestore.Verdict{ID: int64(i + 1), Outcome: "credential-phish"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adm, _, _ := cache.admit(keys[i%len(keys)], int64(i)+1e6)
		if adm != admitHit {
			b.Fatalf("admission = %d, want hit", adm)
		}
	}
}
