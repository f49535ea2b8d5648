GO ?= go

.PHONY: check build fmt vet lint lint-sarif lint-test test race bench-scale perfsmoke tracecheck triagecheck servecheck perfbench fuzz-smoke

# check is the repository's quality gate (DESIGN.md §7): compile, gofmt,
# vet, the cblint invariant linter in baseline and SARIF modes plus its own
# test suite under the race detector (DESIGN.md §9, §13), the full test suite
# (plain and under the race detector — the race run includes the
# workers-1-vs-8 determinism tests and the concurrent-census test), a
# small-scale run of the repository benchmark, the trace golden check
# (DESIGN.md §10), the triage-index golden gate (DESIGN.md §14), the
# ingest replay-determinism gate (DESIGN.md §15), and the benchmark
# module's own vet and tests.
check: build fmt vet lint lint-sarif lint-test test race perfsmoke tracecheck triagecheck servecheck perfbench

build:
	$(GO) build ./...

# fmt fails when any Go file in the tree is not gofmt-formatted, and lists
# those files.
fmt:
	@out=$$(gofmt -l .) && if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs cblint, the stdlib-only invariant linter (see `go run
# ./cmd/cblint -list` and DESIGN.md §9, §13), against the committed baseline:
# findings recorded in lint.baseline.json are accepted debt, any NEW finding
# fails the run. The committed baseline is empty — the repo is clean — so in
# practice every finding fails; regenerate after deliberate acceptance with
#   go run ./cmd/cblint -write-baseline lint.baseline.json ./...
lint:
	$(GO) run ./cmd/cblint -baseline lint.baseline.json ./...

# lint-sarif writes the findings as SARIF 2.1.0 for CI annotation.
lint-sarif:
	$(GO) run ./cmd/cblint -baseline lint.baseline.json -sarif cblint.sarif ./...

# lint-test runs the analyzer suite's own tests (fixtures, facts engine,
# driver) under the race detector — the linter is concurrent (parallel
# per-package analysis over a shared facts engine), so its tests race-gate
# the engine's locking.
lint-test:
	$(GO) test -race ./internal/lint/... ./cmd/cblint/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfsmoke is the executed benchmark in check: the repository benchmark
# (perfbench/, BENCHMARK.json) on the rereport and replay workloads at 5%
# scale for one second each. Each run records ingest journals, replays
# them, and fails on any of perfbench's correctness checks; build products
# stay under .bench_build/.
perfsmoke:
	bash perfbench/run.sh --workload rereport --scale 0.05 --seconds 1 --trace 0
	bash perfbench/run.sh --workload replay --scale 0.05 --seconds 1 --trace 0

# tracecheck replays the example corpus with tracing and 10% fault injection
# on, and diffs both exports against the committed goldens
# (testdata/tracecheck.golden.*): the executable proof that span timelines,
# metrics, and the seeded fault/retry schedule are byte-reproducible.
# Regenerate the goldens by running the same command against testdata/.
tracecheck:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/crawlerbox -n 8 -workers 4 -faults 0.1 \
		-trace $$tmp/trace.jsonl -metrics $$tmp/metrics.prom > /dev/null && \
	diff -u testdata/tracecheck.golden.jsonl $$tmp/trace.jsonl && \
	diff -u testdata/tracecheck.golden.prom $$tmp/metrics.prom && \
	rm -rf $$tmp && echo "tracecheck: trace and metrics match goldens"

# triagecheck is the triage-index golden gate (DESIGN.md §14). It proves
# three byte-identity contracts in one pass: (1) replaying the example
# fault-injected corpus into a fresh -tracestore segment reproduces the
# committed fixture store byte-for-byte, both straight from the generated
# corpus and from the same messages written out by mkdataset and read back
# with -dir; (2) compacting the fixture through
# obsreport -compact reproduces it byte-for-byte (build-vs-compact); and
# (3) the canned obsreport renders — stats, inverted-index queries,
# analyst checklists, crawl-free re-adjudications — match the committed
# golden text. Regenerate after deliberate format changes with the same
# commands against testdata/.
triagecheck:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/crawlerbox -n 8 -workers 4 -faults 0.1 \
		-tracestore $$tmp/fresh.tstore > /dev/null && \
	cmp testdata/triagecheck.store $$tmp/fresh.tstore && \
	$(GO) run ./cmd/mkdataset -seed 42 -scale 0.1 -out $$tmp/eml > /dev/null && \
	$(GO) run ./cmd/crawlerbox -dir $$tmp/eml -n 8 -workers 4 -faults 0.1 \
		-tracestore $$tmp/dir.tstore > /dev/null && \
	cmp testdata/triagecheck.store $$tmp/dir.tstore && \
	$(GO) run ./cmd/obsreport -compact $$tmp/compacted.tstore testdata/triagecheck.store > /dev/null && \
	cmp testdata/triagecheck.store $$tmp/compacted.tstore && \
	{ $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -stats && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -q "outcome=error-page errkind=network" && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -q "domain=captcha-wall.example" && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -q "adjudicable=false limit=3" && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -checklist 2 && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -checklist 6 && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -adjudicate 1 && \
	  $(GO) run ./cmd/obsreport -store testdata/triagecheck.store -adjudicate 4 ; } > $$tmp/triage.txt && \
	diff -u testdata/triagecheck.golden.txt $$tmp/triage.txt && \
	rm -rf $$tmp && echo "triagecheck: triage index, compaction, and renders match goldens"

# servecheck is the continuous-ingest golden gate (DESIGN.md §15): record
# the example corpus into a canned ingest log, replay it through the daemon
# pipeline at workers 1 and 8, and require byte-identical verdict streams
# and counter lines — the executable proof that the sharded verdict cache's
# hit/miss decisions, provenance labels, and counters are
# schedule-independent. The grep pins that the gate exercises the cache (27
# duplicate landing URLs in this corpus), not just the empty-cache path.
servecheck:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/crawlerboxd -record $$tmp/canned.ingestlog -seed 7 -scale 0.1 > /dev/null && \
	$(GO) run ./cmd/crawlerboxd -replay $$tmp/canned.ingestlog -seed 7 -scale 0.1 \
		-workers 1 -out $$tmp/stream1.jsonl > $$tmp/counters1.txt && \
	$(GO) run ./cmd/crawlerboxd -replay $$tmp/canned.ingestlog -seed 7 -scale 0.1 \
		-workers 8 -out $$tmp/stream8.jsonl > $$tmp/counters8.txt && \
	cmp $$tmp/stream1.jsonl $$tmp/stream8.jsonl && \
	diff -u $$tmp/counters1.txt $$tmp/counters8.txt && \
	grep -q '"cache_hits":27' $$tmp/counters1.txt && \
	rm -rf $$tmp && echo "servecheck: replay streams byte-identical at workers 1 and 8 (27 cache hits)"

# fuzz-smoke gives every Fuzz* target in the tree a fixed 5 s of
# coverage-guided fuzzing, one target at a time (go test -fuzz takes one
# package and one target per run): the time-budgeted pass over the parsers'
# hostile-input contracts. It is kept out of check, which stays
# deterministic; a failing input is written under the package's
# testdata/fuzz/ and replays as a regular test case from then on.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: ./$$(dirname $$f) $$t"; \
			$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=5s ./$$(dirname $$f); \
		done; \
	done

# perfbench vets and tests the benchmark module. It is its own Go module,
# so the root's ./... patterns skip it, yet it compiles against the ingest
# and report APIs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-scale runs the streamed-analysis scaling probe at n=1k/10k/100k
# (workers 1/4/8, evidence store armed) and prints go test's benchmark
# lines: msgs/s and the live heap the analysis leaves resident. The 100k
# rungs take a minute or two each.
bench-scale:
	CRAWLERBOX_BENCH_SCALE=1 $(GO) test -run='^$$' \
		-bench=BenchmarkAnalyzeThroughputAtN -benchtime=1x -count=1 -timeout=60m .
