// Command perfbench is the CrawlerBox end-to-end benchmark. It runs one
// named workload against the program built from this checkout, checks
// every verdict it produced, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics, and run.sh
// for the build.
//
// Usage:
//
//	perfbench -workload replay|rereport|batch|daemon [-seed 42] [-seconds 20] [-trace 0|1]
//	perfbench -steady N [-workload W] [-seconds 20]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	bin      string // directory holding the crawlerboxd binary
	work     string // scratch root inside the checkout
	steady   int

	// Set for the worker process only.
	child bool
	dir   string // the run directory
	spans string // the span file
}

func main() {
	//cblint:ignore ctxflow main is the benchmark's program edge; it roots the context
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "dataset seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the timed phases of one run last, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1.0, "dataset scale (1.0 = the paper's 5,181 reports)")
	fs.StringVar(&o.bin, "bin", filepath.Join(".bench_build", "bin"), "directory holding the crawlerboxd binary")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for run files and span files")
	fs.IntVar(&o.steady, "steady", 0, "steadiness report: N runs per workload and set, two sets")
	fs.BoolVar(&o.child, "child", false, "internal: run as the worker process")
	fs.StringVar(&o.dir, "dir", "", "internal: the worker's run directory")
	fs.StringVar(&o.spans, "spans", "", "internal: the worker's span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace == 1
	switch {
	case o.child:
		return runChild(ctx, o)
	case o.steady > 0:
		return runSteady(o, stdout)
	}
	if !validWorkload(o.workload) {
		return fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	out, err := runWorkload(ctx, o)
	if err != nil {
		return err
	}
	return printOutcome(stdout, o, out)
}

// defaultSeed is the workload seed when -seed is not given; BENCHMARK.json
// records it.
const defaultSeed = 42

var workloadNames = []string{"replay", "rereport", "batch", "daemon"}

func validWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// metricDef is one reported metric: name, unit and direction.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a run prints with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"msgs_per_s", "1/s", "higher"},
	{"verdict_p50_ms", "ms", "lower"},
	{"verdict_p99_ms", "ms", "lower"},
	{"alloc_bytes_per_msg", "B", "lower"},
	{"allocs_per_msg", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer are the metrics a run prints with -trace 1.
var perLayer = []metricDef{
	{"ingest.log_read_us_per_msg", "us", "lower"},
	{"ingest.key_us_per_msg", "us", "lower"},
	{"ingest.parses_per_msg", "1/msg", "lower"},
	{"ingest.cache_hit_ratio", "ratio", "higher"},
	{"ingest.keyless_ratio", "ratio", "lower"},
	{"ingest.cache_entries", "count", "lower"},
	{"ingest.admit_blocked_share", "ratio", "lower"},
	{"ingest.submit_us_p50", "us", "lower"},
	{"ingest.submit_us_p99", "us", "lower"},
	{"ingest.verdict_poll_us_p50", "us", "lower"},
	{"ingest.journal_bytes_per_msg", "B", "lower"},
	{"crawlerbox.parse_us_per_msg", "us", "lower"},
	{"crawlerbox.crawl_us_per_msg", "us", "lower"},
	{"crawlerbox.interact_us_per_msg", "us", "lower"},
	{"crawlerbox.classify_us_per_msg", "us", "lower"},
	{"crawlerbox.census_us_per_msg", "us", "lower"},
	{"crawlerbox.enrich_us_per_msg", "us", "lower"},
	{"crawlerbox.other_us_per_msg", "us", "lower"},
	{"crawlerbox.halt_after_parse_ratio", "ratio", "higher"},
	{"crawlerbox.worker_busy_share", "ratio", "higher"},
	{"browser.visits_per_msg", "1/msg", "lower"},
	{"browser.us_per_visit", "us", "lower"},
	{"minijs.scripts_per_msg", "1/msg", "lower"},
	{"minijs.distinct_script_ratio", "ratio", "lower"},
	{"minijs.parse_us_per_msg", "us", "lower"},
	{"htmlx.parse_us_per_msg", "us", "lower"},
	{"mime.parse_us_per_msg", "us", "lower"},
	{"imaging.signs_per_msg", "1/msg", "lower"},
	{"imaging.sign_us_per_call", "us", "lower"},
	{"evstore.encode_us_per_msg", "us", "lower"},
	{"evstore.evidence_bytes_per_msg", "B", "lower"},
	{"tracestore.segment_bytes_per_msg", "B", "lower"},
	{"dataset.render_us_per_msg", "us", "lower"},
	{"report.aggregate_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.coverage_ratio", "ratio", "higher"},
}

// outcome is one run's result before it is printed.
type outcome struct {
	problem   string // first failed correctness check; empty when correct
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // human-readable context printed above the JSON
}

func runWorkload(ctx context.Context, o options) (*outcome, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	if o.trace {
		spanDir := filepath.Join(o.work, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		o.spans = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.Remove(o.spans); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	if o.workload == "daemon" {
		return runDaemon(ctx, o)
	}
	return runInProcess(ctx, o)
}

// printOutcome prints every metric by name and unit, then the result
// object as the last line.
func printOutcome(w io.Writer, o options, out *outcome) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s, seed %d, %gs, trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	failedRatio := 0.0
	if out.attempted > 0 {
		failedRatio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14d %s\n", "attempted", out.attempted, "count")
	fmt.Fprintf(w, "  %-34s %14.6f %s\n", "failed_ratio", failedRatio, "ratio")
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricJSON{}
	var absent []string
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			absent = append(absent, d.Name)
		}
		metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		fmt.Fprintf(w, "not exercised by this workload (reported as 0): %s\n", strings.Join(absent, ", "))
	}
	if out.problem != "" {
		fmt.Fprintln(w, "CORRECTNESS CHECK FAILED:", out.problem)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{out.problem == "", out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if out.problem != "" {
		return fmt.Errorf("correctness check failed: %s", out.problem)
	}
	return nil
}
