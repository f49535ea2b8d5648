package crawlerboxgo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"crawlerbox/internal/crawler"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/imaging"
	"crawlerbox/internal/qrcode"
	"crawlerbox/internal/report"
	"crawlerbox/internal/tracestore"
	"crawlerbox/internal/urlx"
)

// The benchmark corpus is generated and analyzed once (a tenth-scale run,
// ~520 messages) and shared by the benchmarks that time work done on the
// analyzed run: Figure 2's t-tests and the referral scan over the ledger.
var (
	_benchOnce sync.Once
	_benchRun  *report.Run
	_benchErr  error
)

func benchRun(b *testing.B) *report.Run {
	b.Helper()
	_benchOnce.Do(func() {
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			_benchErr = err
			return
		}
		_benchRun, _benchErr = report.Analyze(context.Background(), c)
	})
	if _benchErr != nil {
		b.Fatal(_benchErr)
	}
	return _benchRun
}

// BenchmarkTable1CrawlerAssessment regenerates Table I: the eight crawlers
// against BotD, Turnstile, and AnonWAF. The report is printed once.
func BenchmarkTable1CrawlerAssessment(b *testing.B) {
	var last *crawler.Assessment
	for i := 0; i < b.N; i++ {
		a, err := crawler.RunAssessment(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = a
	}
	b.StopTimer()
	if last != nil {
		b.Log("\n" + report.RenderTable1(last))
	}
}

// BenchmarkFigure2MonthlyVolume regenerates Figure 2: monthly counts, the
// 2023 baseline comparison, and the paired t-tests.
func BenchmarkFigure2MonthlyVolume(b *testing.B) {
	run := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Log("\n" + run.RenderFigure2())
}

// BenchmarkFaultyQRBug measures the faulty-QR extraction divergence: encode
// a junk-prefixed payload, render, decode, and compare strict vs lenient
// extraction (the Section V-C1 filter bug).
func BenchmarkFaultyQRBug(b *testing.B) {
	payload := "xxx https://evil-site.com/dhfYWfH"
	var strictHits, lenientHits int
	for i := 0; i < b.N; i++ {
		m, err := qrcode.Encode(payload, qrcode.ECMedium)
		if err != nil {
			b.Fatal(err)
		}
		img, err := qrcode.Render(m, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := qrcode.DecodeImage(img)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := urlx.ExtractStrictWhole(dec.Payload); ok {
			strictHits++
		}
		if len(urlx.ExtractLenient(dec.Payload)) > 0 {
			lenientHits++
		}
	}
	b.StopTimer()
	if strictHits != 0 || lenientHits != b.N {
		b.Fatalf("strict=%d lenient=%d of %d: the divergence must hold", strictHits, lenientHits, b.N)
	}
}

// BenchmarkAblationCrawlerChoice compares pipeline effectiveness across
// crawler stacks: the same gated phishing site crawled by a basic headless
// stack vs NotABot. The design point the paper's Table I motivates.
func BenchmarkAblationCrawlerChoice(b *testing.B) {
	for _, kind := range []crawler.Kind{crawler.PuppeteerStealth, crawler.NotABot} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell, err := crawler.RunAssessmentCell(context.Background(), kind, crawler.DetectorTurnstile, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				_ = cell
			}
		})
	}
}

// BenchmarkPerceptualHashing measures the screenshot classifier's hashing.
func BenchmarkPerceptualHashing(b *testing.B) {
	img := imaging.MustNew(256, 192, imaging.White)
	img.FillRect(0, 0, 256, 28, imaging.RGB{R: 20, G: 60, B: 140})
	imaging.DrawText(img, 8, 10, "ACME TRAVELTECH", imaging.White)
	// Sign is what the pipeline calls per screenshot: both hashes from one
	// pass over the pixels.
	b.Run("Sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = imaging.Sign(img)
		}
	})
}

// BenchmarkCorpusGeneration measures tenth-scale corpus generation: the
// world deployment and message plans, then every message rendered once.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := dataset.Stream(dataset.Config{Seed: int64(i + 1), Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		c.Each(func(int, *dataset.Message) bool { return true })
	}
}

// settledHeap returns HeapAlloc after two back-to-back collections, i.e.
// the truly live heap with the first cycle's floating garbage reclaimed.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkTraceStoreBuild measures triage-index construction: a streamed
// tenth-scale corpus analyzed with the trace store armed, every span tree
// and verdict row finalized into one canonical segment. Reported alongside
// throughput: the finalized segment's size.
func BenchmarkTraceStoreBuild(b *testing.B) {
	dir := b.TempDir()
	analyzed := 0
	var segBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seg-%d.tstore", i))
		b.StartTimer()
		run, err := report.Analyze(context.Background(), c,
			report.WithWorkers(4), report.WithTraceStorePath(path))
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if run.Errors != 0 {
			b.Fatalf("%d analysis errors", run.Errors)
		}
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		segBytes = st.Size()
		analyzed += c.Len()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(analyzed)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(segBytes), "segment-bytes")
}

// BenchmarkTraceStoreQuery measures triage queries over a built segment:
// each iteration runs the canned conjunctive queries (outcome, domain ∧
// stage, cloak) plus one checklist render and one re-adjudication — the
// analyst's inner loop, all served from the inverted index with no
// pipeline or crawl.
func BenchmarkTraceStoreQuery(b *testing.B) {
	path := filepath.Join(b.TempDir(), "seg.tstore")
	c, err := dataset.Stream(dataset.Config{Seed: 42, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := report.Analyze(context.Background(), c,
		report.WithWorkers(4), report.WithTraceStorePath(path)); err != nil {
		b.Fatal(err)
	}
	st, err := tracestore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	queries := make([]tracestore.Query, 0, 3)
	for _, qs := range []string{
		"outcome=active-phishing",
		"outcome=error-page stage=classify",
		"cloak=turnstile limit=10",
	} {
		q, err := tracestore.ParseQuery(qs)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	adjID := st.IDs()[0]
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			verdicts, err := st.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			matched += len(verdicts)
		}
		if _, err := st.Checklist(adjID); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Readjudicate(adjID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(matched)/float64(b.N), "matches/op")
}

// BenchmarkAnalyzeThroughputAtN is the million-message-scale probe: it
// streams an n-message corpus through Analyze with the on-disk evidence
// store armed, reporting throughput (msgs/s) and the live heap the
// analysis leaves resident (live-heap-MB: HeapAlloc after back-to-back
// forced GCs, above a post-generation baseline measured the same way).
// Quiescent live heap is the right memory metric here, for two reasons.
// First, sampling raw HeapAlloc mid-run measures collector slack — the
// heap rides up to GOGC percent above the live set, and since the live
// set includes the O(corpus) hosted world, the slack grows with n no
// matter what the analysis retains. Second, everything the analysis
// keeps resident (spill counters, census shards, DNS aggregates) only
// grows during the run, so the quiescent end-state IS its high-water
// mark; what it excludes is the in-flight transient, bounded by
// workers × one message, not by n. With streaming + shard folds +
// evidence spilling the metric stays near-flat from n=1k to n=100k
// while the in-RAM path grows linearly. Only n=1000 runs by default;
// set CRAWLERBOX_BENCH_SCALE=1 (make bench-scale) for the 10k/100k
// rungs.
func BenchmarkAnalyzeThroughputAtN(b *testing.B) {
	sizes := []int{1000}
	if os.Getenv("CRAWLERBOX_BENCH_SCALE") != "" {
		sizes = append(sizes, 10000, 100000)
	}
	for _, n := range sizes {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("n-%d/workers-%d", n, workers), func(b *testing.B) {
				dir := b.TempDir()
				analyzed := 0
				peakMB := 0.0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c, err := dataset.Stream(dataset.Config{
						Seed:  42,
						Scale: float64(n) / float64(dataset.TotalMessages),
					})
					if err != nil {
						b.Fatal(err)
					}
					// Baseline after generation: the corpus plan and the
					// hosted world are setup cost, not analysis footprint.
					// Two GCs settle the heap (the first cycle's floating
					// garbage dies in the second).
					base := settledHeap()
					b.StartTimer()
					run, err := report.Analyze(context.Background(), c,
						report.WithWorkers(workers),
						report.WithEvidencePath(filepath.Join(dir, fmt.Sprintf("ev-%d.cbes", i))))
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if run.Errors != 0 {
						b.Fatalf("%d analysis errors", run.Errors)
					}
					live := settledHeap()
					analyzed += c.Len()
					if d := float64(live-base) / (1 << 20); live > base && d > peakMB {
						peakMB = d
					}
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(analyzed)/b.Elapsed().Seconds(), "msgs/s")
				b.ReportMetric(peakMB, "live-heap-MB")
				// The flatness claim in per-message terms: resident bytes
				// per analyzed message, constant across corpus decades.
				b.ReportMetric(peakMB*(1<<20)/float64(n), "live-B/msg")
			})
		}
	}
}
