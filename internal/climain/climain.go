// Package climain factors out the flag handling shared by the CrawlerBox
// command-line tools: the analysis worker pool, the observability exports
// (-trace / -metrics), and the resilience layer (-faults / -retry-max /
// -breaker-threshold). Each tool registers the shared flags on its own
// FlagSet, then asks the resulting Flags value for the assembled observer,
// resilience policy, and export writer — so the tools cannot drift apart in
// flag names, defaults, or help text.
package climain

import (
	"flag"
	"io"
	"os"
	"runtime"

	"crawlerbox/internal/obs"
	"crawlerbox/internal/report"
	"crawlerbox/internal/resilience"
)

// Flags holds the parsed values of the shared CLI flags. Read them after
// flag.Parse.
type Flags struct {
	// Workers is the analysis worker-pool size (-workers).
	Workers *int
	// Trace is the trace JSONL output path (-trace, empty = off).
	Trace *string
	// Metrics is the Prometheus text output path (-metrics, empty = off).
	Metrics *string
	// Faults is the injected fault rate in [0,1] (-faults, 0 = disarmed).
	Faults *float64
	// RetryMax is the retry budget per operation (-retry-max).
	RetryMax *int
	// BreakerThreshold is the consecutive-failure count that opens a
	// per-host circuit breaker (-breaker-threshold).
	BreakerThreshold *int
	// Evidence is the on-disk evidence store path (-evidence, empty = keep
	// evidence in RAM).
	Evidence *string
	// TraceStore is the triage-index segment path (-tracestore, empty =
	// off). The finalized segment is queryable with `obsreport -store`.
	TraceStore *string
}

// Register installs the shared flags on fs with their canonical names,
// defaults, and help strings.
func Register(fs *flag.FlagSet) *Flags {
	def := resilience.DefaultPolicy()
	return &Flags{
		Workers:  fs.Int("workers", runtime.NumCPU(), "analysis worker-pool size (results are identical for any value)"),
		Trace:    fs.String("trace", "", "write per-message trace spans as JSONL to FILE"),
		Metrics:  fs.String("metrics", "", "write metrics as Prometheus text to FILE"),
		Faults:   fs.Float64("faults", 0, "inject seeded transient faults at this rate in [0,1] (0 = off); recovery via virtual-clock retries and breakers"),
		RetryMax: fs.Int("retry-max", def.RetryMax, "retries per network operation when -faults is on"),
		BreakerThreshold: fs.Int("breaker-threshold", def.BreakerThreshold,
			"consecutive per-host failures that open the circuit breaker when -faults is on"),
		Evidence: fs.String("evidence", "", "spill bulky evidence (visit records, traffic) to an append-only store at FILE"),
		TraceStore: fs.String("tracestore", "",
			"write the triage index (span trees, verdict evidence, metrics) to FILE; query with `obsreport -store`"),
	}
}

// ReportOptions assembles the report.Analyze / report.AnalyzeSpecs options
// the shared flags select: the worker count, the given observer, the
// resilience policy, and the path-based evidence/trace stores (-evidence /
// -tracestore) whose create/finalize/close lifecycle the run owns.
func (f *Flags) ReportOptions(observer *obs.Observer) []report.Option {
	return []report.Option{
		report.WithWorkers(*f.Workers),
		report.WithObserver(observer),
		report.WithResilience(f.Policy()),
		report.WithEvidencePath(*f.Evidence),
		report.WithTraceStorePath(*f.TraceStore),
	}
}

// Observer returns a fresh observer when -trace, -metrics, or -tracestore
// was given, nil otherwise (observability off). The triage index persists
// span trees and metrics, so -tracestore alone needs an observer too.
func (f *Flags) Observer() *obs.Observer {
	if *f.Trace == "" && *f.Metrics == "" && *f.TraceStore == "" {
		return nil
	}
	return obs.New()
}

// Policy assembles the resilience policy selected by the flags: nil when
// -faults is zero (layer disarmed), else the default policy with the fault
// rate, retry budget, and breaker threshold overridden.
func (f *Flags) Policy() *resilience.Policy {
	if *f.Faults <= 0 {
		return nil
	}
	p := resilience.DefaultPolicy()
	p.FaultRate = *f.Faults
	p.RetryMax = *f.RetryMax
	p.BreakerThreshold = *f.BreakerThreshold
	return p
}

// WriteExports dumps the observer's trace JSONL and Prometheus text exports
// to the files named by -trace and -metrics. A nil observer writes nothing.
func (f *Flags) WriteExports(o *obs.Observer) error {
	if o == nil {
		return nil
	}
	if *f.Trace != "" {
		if err := WriteTo(*f.Trace, o.WriteJSONL); err != nil {
			return err
		}
	}
	if *f.Metrics != "" {
		if err := WriteTo(*f.Metrics, o.Metrics.WriteProm); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo creates path and streams write into it, closing on every path and
// returning the close error, so a short file never passes for a whole one.
func WriteTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
