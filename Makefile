GO ?= go

.PHONY: check build fmt vet lint lint-test test race bench-scale perfsmoke tracecheck triagecheck evidencecheck servecheck verdictcheck papercheck perfbench fuzz-smoke

# check is the repository's quality gate (DESIGN.md §7): compile, gofmt,
# vet, the cblint invariant linter plus its own test suite under the race
# detector (DESIGN.md §9, §13), the full test suite (plain and under the race
# detector — the race run includes the workers-1-vs-8 determinism tests and
# the concurrent-census test), a small-scale run of the repository benchmark, the trace golden check
# (DESIGN.md §10), the triage-index golden gate (DESIGN.md §14), the
# evidence-store pin (DESIGN.md §8), the ingest replay-determinism gate
# (DESIGN.md §15), the verdict-stream pin of the full seed-42 corpus, the
# paper-table golden of the same corpus, and the benchmark module's own vet
# and tests.
check: build fmt vet lint lint-test test race perfsmoke tracecheck triagecheck evidencecheck servecheck verdictcheck papercheck perfbench

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
# ./cmd/cblint -list` and DESIGN.md §9, §13): any unsuppressed finding fails
# the run. A site that is safe by construction carries a
# //cblint:ignore <analyzer> <reason> directive instead.
lint:
	$(GO) run ./cmd/cblint ./...

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
# (perfbench/, BENCHMARK.json) on the rereport, replay, batch and daemon
# workloads at 5% scale for one second each. The ingest runs record
# journals, replay them, and fail on any of perfbench's correctness
# checks; the batch run spills evidence and checks its triage segment
# against a replay; the daemon run drives the crawlerboxd binary over HTTP
# and checks its verdicts against a replay. Build products stay under
# .bench_build/.
perfsmoke:
	bash perfbench/run.sh --workload rereport --scale 0.05 --seconds 1 --trace 0
	bash perfbench/run.sh --workload replay --scale 0.05 --seconds 1 --trace 0
	bash perfbench/run.sh --workload batch --scale 0.05 --seconds 1 --trace 0
	bash perfbench/run.sh --workload daemon --scale 0.05 --seconds 1

# Each golden gate below writes its runs into a mktemp -d directory and
# removes it from an EXIT trap, so a failing gate leaves nothing behind and
# still fails with its own exit status.
#
# tracecheck replays the example corpus with tracing and 10% fault injection
# on, and diffs both exports against the committed goldens
# (testdata/tracecheck.golden.*): the executable proof that span timelines,
# metrics, and the seeded fault/retry schedule are byte-reproducible.
# Regenerate the goldens by running the same command against testdata/.
tracecheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/crawlerbox -n 8 -workers 4 -faults 0.1 \
		-trace $$tmp/trace.jsonl -metrics $$tmp/metrics.prom > /dev/null && \
	diff -u testdata/tracecheck.golden.jsonl $$tmp/trace.jsonl && \
	diff -u testdata/tracecheck.golden.prom $$tmp/metrics.prom && \
	echo "tracecheck: trace and metrics match goldens"

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
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
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
	echo "triagecheck: triage index, compaction, and renders match goldens"

# evidencecheck pins the evidence store's bytes (DESIGN.md §8), which the
# trace-store gates do not read: the example corpus with 10% fault
# injection, spilled at one worker, must hash to the committed sha256.
# Analysis records are appended in spec order at any worker count, but
# exchange records are appended as the exchanges happen, so only -workers 1
# gives a schedule-independent store. Regenerate after a deliberate format change
# by running the same command and writing its sha256sum line (file name
# evidence.store) to testdata/evidencecheck.sha256.
evidencecheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/crawlerbox -n 40 -workers 1 -faults 0.1 \
		-evidence $$tmp/evidence.store > /dev/null && \
	sum=$$(cat testdata/evidencecheck.sha256) && \
	(cd $$tmp && echo "$$sum" | sha256sum -c --quiet -) && \
	echo "evidencecheck: evidence store matches testdata/evidencecheck.sha256"

# servecheck is the continuous-ingest golden gate (DESIGN.md §15): record
# the example corpus into a canned ingest log, replay it through the daemon
# pipeline at workers 1 and 8, and require byte-identical verdict streams
# and counter lines — the executable proof that the verdict cache's
# hit/miss decisions, provenance labels, and counters are
# schedule-independent. The grep pins that the gate exercises the cache (27
# duplicate landing URLs in this corpus), not just the empty-cache path.
servecheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/crawlerboxd -record $$tmp/canned.ingestlog -seed 7 -scale 0.1 > /dev/null && \
	$(GO) run ./cmd/crawlerboxd -replay $$tmp/canned.ingestlog -seed 7 -scale 0.1 \
		-workers 1 -out $$tmp/stream1.jsonl > $$tmp/counters1.txt && \
	$(GO) run ./cmd/crawlerboxd -replay $$tmp/canned.ingestlog -seed 7 -scale 0.1 \
		-workers 8 -out $$tmp/stream8.jsonl > $$tmp/counters8.txt && \
	cmp $$tmp/stream1.jsonl $$tmp/stream8.jsonl && \
	diff -u $$tmp/counters1.txt $$tmp/counters8.txt && \
	grep -q '"cache_hits":27' $$tmp/counters1.txt && \
	echo "servecheck: replay streams byte-identical at workers 1 and 8 (27 cache hits)"

# verdictcheck pins the verdicts of the whole seed-42 corpus at scale 1
# (5,181 submissions, DESIGN.md §15): record its ingest journal, replay it
# at one worker, and require the verdict stream to hash to the committed
# sha256. servecheck proves the stream does not depend on the worker
# count; this gate proves a change to the analysis left every verdict, its
# provenance and its evidence fields byte-identical. Regenerate after a
# deliberate verdict change by running the same commands and writing the
# stream's sha256sum line (file name stream.jsonl) to
# testdata/verdictcheck.sha256.
verdictcheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/crawlerboxd -record $$tmp/seed42.ingestlog -seed 42 -scale 1 > /dev/null && \
	$(GO) run ./cmd/crawlerboxd -replay $$tmp/seed42.ingestlog -seed 42 -scale 1 \
		-workers 1 -out $$tmp/stream.jsonl > /dev/null && \
	sum=$$(cat testdata/verdictcheck.sha256) && \
	(cd $$tmp && echo "$$sum" | sha256sum -c --quiet -) && \
	echo "verdictcheck: seed-42 verdict stream matches testdata/verdictcheck.sha256"

# papercheck pins the paper's numbers: the report of the whole seed-42
# corpus at scale 1 (Table I, the disposition, Figures 2 and 3, Table II,
# the Section V-A/B/C tables) must match testdata/papercheck.golden.txt,
# at one worker and at four (the census folds results in spec order, so
# the worker count must not move a number). The "Analyzing N messages ...
# (W workers)" banner names the worker count, so it is left out of the
# diff on both sides. Regenerate after a deliberate change to a paper
# number by writing the -workers 1 command's stdout to the golden, and say
# which rows moved.
papercheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	banner='^Analyzing [0-9]* messages with CrawlerBox ([0-9]* workers)\.\.\.$$' && \
	grep -v "$$banner" testdata/papercheck.golden.txt > $$tmp/want.txt && \
	for w in 1 4; do \
		$(GO) run ./cmd/report -seed 42 -scale 1 -workers $$w > $$tmp/report.txt && \
		grep -v "$$banner" $$tmp/report.txt > $$tmp/got.txt && \
		diff -u $$tmp/want.txt $$tmp/got.txt || exit 1; \
	done && \
	echo "papercheck: seed-42 report at workers 1 and 4 matches testdata/papercheck.golden.txt"

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
