// Command report regenerates every table and figure of the paper's
// evaluation: it builds the calibrated synthetic corpus, runs the CrawlerBox
// pipeline over all of it, and prints the aggregations.
//
// Usage:
//
//	report [-seed N] [-scale F] [-workers N] [-only table1|table2|fig2|fig3|disposition|spear|nontargeted|cloaks]
//	       [-trace FILE] [-metrics FILE] [-faults F] [-retry-max N] [-breaker-threshold N]
//	       [-evidence FILE] [-tracestore FILE]
//
// At -scale 1.0 (the default) the corpus holds 5,181 messages and the full
// run takes a few seconds. -workers parallelizes the per-message analysis;
// the aggregates are bitwise identical for every worker count — as are the
// -trace JSONL and -metrics Prometheus dumps, which record the corpus
// analysis on the virtual clock (render them with cmd/obsreport). -faults
// injects seeded transient network faults (NXDOMAIN flaps, resets, slow
// starts, 5xx bursts) recovered through virtual-clock retries and per-host
// circuit breakers; messages the recovery layer gave up on land in the
// partial-evidence disposition row. -evidence spills bulky evidence (visit
// records, logged traffic) to an append-only store so resident memory
// stays flat however large -scale makes the corpus; every aggregate is
// byte-identical with or without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"crawlerbox/internal/climain"
	"crawlerbox/internal/crawler"
	"crawlerbox/internal/dataset"
	"crawlerbox/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 42, "corpus generation seed")
	scale := flag.Float64("scale", 1.0, "corpus scale (1.0 = 5,181 messages)")
	only := flag.String("only", "", "print a single artifact: table1|table2|fig2|fig3|disposition|spear|nontargeted|cloaks")
	shared := climain.Register(flag.CommandLine)
	flag.Parse()

	if *only == "table1" || *only == "" {
		fmt.Println("Running Table I crawler assessment...")
		a, err := crawler.RunAssessment(context.Background())
		if err != nil {
			return err
		}
		fmt.Println(report.RenderTable1(a))
		if *only == "table1" {
			return nil
		}
	}

	fmt.Printf("Generating corpus (seed=%d scale=%.2f)...\n", *seed, *scale)
	// Specs render lazily into the worker pool and each result folds into
	// one census as it commits, so peak memory is O(workers) however large
	// -scale makes the corpus.
	c, err := dataset.Stream(dataset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	fmt.Printf("Analyzing %d messages with CrawlerBox (%d workers)...\n\n", c.Len(), *shared.Workers)
	observer := shared.Observer()
	// The -evidence and -tracestore stores ride along as path options:
	// Analyze creates, finalizes, and closes them itself.
	run, err := report.Analyze(context.Background(), c, shared.ReportOptions(observer)...)
	if err != nil {
		return err
	}
	if err := shared.WriteExports(observer); err != nil {
		return err
	}

	artifacts := []struct {
		key  string
		text func() string
	}{
		{"disposition", run.RenderDisposition},
		{"fig2", run.RenderFigure2},
		{"table2", run.RenderTable2},
		{"fig3", run.RenderFigure3},
		{"spear", run.RenderSpear},
		{"nontargeted", run.RenderNonTargeted},
		{"cloaks", run.RenderCloaks},
	}
	for _, a := range artifacts {
		if *only != "" && *only != a.key {
			continue
		}
		fmt.Println(a.text())
	}
	return nil
}
