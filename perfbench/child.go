package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
)

// The worker process runs the timed passes of one in-process workload.
// It is a separate process so that its peak RSS and allocation counters
// cover the program's work only: the parent keeps the generator's state
// (rendered corpus, recorded logs) and reads the worker's results from
// child.json in the run directory.

func runChild(ctx context.Context, o options) error {
	var res childResult
	var err error
	switch o.workload {
	case "replay", "rereport":
		res, err = childReplay(ctx, o, filepath.Join(o.dir, o.workload+".log"))
	case "batch":
		res, err = childBatch(ctx, o)
	default:
		err = fmt.Errorf("no in-process workload %q", o.workload)
	}
	if err == nil {
		res.PeakRSSMB, err = peakRSSMB("self")
	}
	if err != nil {
		res.Problem = err.Error()
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	if werr := os.WriteFile(filepath.Join(o.dir, "child.json"), b, 0o644); werr != nil {
		return werr
	}
	return err
}

// wantMore reports whether another pass is needed: until the timed phases
// add up to the run length and, in a traced run, until there is at least
// one untraced and one traced pass.
func wantMore(o options, passes []pass) bool {
	var elapsed float64
	var plain, traced int
	for _, p := range passes {
		elapsed += p.WallS
		if p.Traced {
			traced++
		} else {
			plain++
		}
	}
	if o.trace && (plain == 0 || traced == 0) {
		return true
	}
	return elapsed < o.seconds
}

// childReplay runs replay passes over the log, alternating untraced and
// traced passes in a traced run, and leaves the last pass's verdict stream
// in verdicts.jsonl for the parent's checks.
func childReplay(ctx context.Context, o options, logPath string) (childResult, error) {
	var out childResult
	in, err := readLogInfo(logPath)
	if err != nil {
		return out, err
	}
	var last *ingest.Result
	var acc layerAcc
	for i := 0; wantMore(o, out.Passes); i++ {
		traced := o.trace && i%2 == 1
		p, res, tr, err := replayPass(ctx, logPath, in, o.seed, o.scale, traced)
		if err != nil {
			return out, err
		}
		if len(out.Passes) > 0 && p.StreamHash != out.Passes[0].StreamHash {
			return out, fmt.Errorf("pass %d emitted a different verdict stream than pass 0", i)
		}
		if traced {
			if err := acc.addReplay(o, fmt.Sprintf("%s-%d", o.workload, i), p, res, in, tr); err != nil {
				return out, err
			}
		}
		out.Passes = append(out.Passes, p)
		out.Setups = append(out.Setups, p.SetupS)
		last = res
	}
	if err := extraSetups(ctx, o, &out); err != nil {
		return out, err
	}
	if o.trace {
		out.Layers = acc.metrics()
		// Replay reads and decodes the whole log before it admits
		// anything; no hook sees that, so it is re-timed here.
		var readErr error
		ns := timeEach(1, func(int) { _, readErr = ingest.ReadLog(logPath) })
		if readErr != nil {
			return out, readErr
		}
		out.Layers["ingest.log_read_us_per_msg"] = ns / 1e3 / float64(len(in.pending))
		if err := addRunWide(o, &out); err != nil {
			return out, err
		}
	}
	return out, writeStream(filepath.Join(o.dir, "verdicts.jsonl"), last)
}

// childBatch runs batch passes, and in a traced run adds the batch-side
// layer figures plus one traced replay pass over the same corpus for the
// layers batch shares with replay but report.Analyze gives no hook for.
func childBatch(ctx context.Context, o options) (childResult, error) {
	var out childResult
	var aggMS []float64
	for i := 0; wantMore(o, out.Passes); i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = &tracer{cur: -1}
		}
		p, err := batchPass(ctx, o.dir, o.seed, o.scale, tr)
		if err != nil {
			return out, err
		}
		if len(out.Passes) > 0 && p.StreamHash != out.Passes[0].StreamHash {
			return out, fmt.Errorf("batch pass %d wrote a different triage segment than pass 0", i)
		}
		if tr != nil {
			if err := writeSpans(o.spans, fmt.Sprintf("batch-%d", i), tr.spans); err != nil {
				return out, err
			}
			for _, s := range tr.spans {
				if s.Name == "report.aggregate" {
					aggMS = append(aggMS, float64(s.End-s.Start)/1e6)
				}
			}
		}
		out.Passes = append(out.Passes, p)
		out.Setups = append(out.Setups, p.SetupS)
	}
	if err := extraSetups(ctx, o, &out); err != nil {
		return out, err
	}
	if !o.trace {
		return out, nil
	}
	logPath := filepath.Join(o.dir, "replay.log")
	in, err := readLogInfo(logPath)
	if err != nil {
		return out, err
	}
	p, res, tr, err := replayPass(ctx, logPath, in, o.seed, o.scale, true)
	if err != nil {
		return out, err
	}
	var acc layerAcc
	if err := acc.addReplay(o, "batch-replay", p, res, in, tr); err != nil {
		return out, err
	}
	out.Layers = acc.metrics()
	// Batch never keys, caches or journals: the ingest layer does no work.
	for name := range out.Layers {
		if len(name) > 7 && name[:7] == "ingest." {
			delete(out.Layers, name)
		}
	}
	out.Layers["ingest.parses_per_msg"] = 1 // the parse stage, once per message
	out.Layers["report.aggregate_ms"] = median(aggMS)
	n := float64(out.Passes[0].Msgs)
	for name, file := range map[string]string{
		"evstore.evidence_bytes_per_msg":   "batch.evstore",
		"tracestore.segment_bytes_per_msg": "batch.tstore",
	} {
		fi, err := os.Stat(filepath.Join(o.dir, file))
		if err != nil {
			return out, err
		}
		out.Layers[name] = float64(fi.Size()) / n
	}
	return out, addRunWide(o, &out)
}

// extraSetups repeats the workload's set-up, untimed otherwise, until the
// run holds minSetups samples. Each starts from a collected heap, as the
// set-up of a timed pass does.
func extraSetups(ctx context.Context, o options, out *childResult) error {
	for len(out.Setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		var err error
		if o.workload == "batch" {
			_, err = dataset.Stream(dataset.Config{Seed: o.seed, Scale: o.scale})
		} else {
			_, err = buildPipeline(ctx, o.seed, o.scale)
		}
		if err != nil {
			return err
		}
		out.Setups = append(out.Setups, time.Since(t0).Seconds())
	}
	return nil
}

// addRunWide adds the figures that span the run: GC share of the untraced
// passes, the tracing overhead, and the generator's own cost.
func addRunWide(o options, out *childResult) error {
	var gc, cpu float64
	var plain, traced []float64
	for _, p := range out.Passes {
		if p.Traced {
			traced = append(traced, p.rate())
			continue
		}
		plain = append(plain, p.rate())
		gc += p.GCCPUS
		cpu += p.CPUS
	}
	if cpu > 0 {
		out.Layers["runtime.gc_cpu_share"] = gc / cpu
	}
	if len(traced) > 0 {
		out.Layers["trace.overhead_ratio"] = median(plain) / median(traced)
	}
	us, err := renderPass(o.seed, o.scale)
	if err != nil {
		return err
	}
	out.Layers["dataset.render_us_per_msg"] = us
	return nil
}

func writeStream(path string, res *ingest.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteVerdictStream(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerAcc sums the traced passes of a replay-shaped run.
type layerAcc struct {
	msgs, analyses, parses, halts, visits, keyless, hits, entries int
	self                                                          map[string]int64
	analyzeNS, keyGapNS, wallNS, rootNS                           int64
	cpuS                                                          float64
	probes                                                        map[string]float64
}

// addReplay folds one traced replay pass into the sums, writes its spans,
// and, for the first traced pass, re-times the probes on its captures.
func (a *layerAcc) addReplay(o options, name string, p pass, res *ingest.Result, in *logInfo, tr *tracer) error {
	// Key spans are recorded in admission order, which is the order of
	// the pending specs.
	k := 0
	var lastKeyEnd int64
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.Name {
		case "ingest.key":
			s.Msg = in.pending[k]
			if k > 0 {
				a.keyGapNS += s.Start - lastKeyEnd
			}
			lastKeyEnd = s.End
			k++
			a.rootNS += s.End - s.Start
		case "crawlerbox.analyze":
			a.analyzeNS += s.End - s.Start
			a.rootNS += s.End - s.Start
		}
	}
	if err := writeSpans(o.spans, name, tr.spans); err != nil {
		return err
	}
	if a.self == nil {
		a.self = map[string]int64{}
	}
	for n, v := range selfTimes(tr.spans) {
		a.self[n] += v
	}
	pending := map[int64]bool{}
	for _, id := range in.pending {
		pending[id] = true
	}
	keys := map[string]bool{}
	for _, e := range res.Emitted {
		if e.Key != "" {
			keys[e.Key] = true
		}
		if pending[e.ID] && e.Provenance == ingest.ProvenanceCached {
			a.hits++
		}
	}
	a.entries = len(keys)
	a.msgs += p.Msgs
	a.analyses += tr.analyses
	a.parses += tr.parses
	a.halts += tr.halts
	a.visits += tr.visits
	a.keyless += tr.keyless
	a.wallNS += int64(p.WallS * 1e9)
	a.cpuS += p.CPUS
	if a.probes == nil {
		a.probes = tr.cap.probeMetrics(p.Msgs)
	}
	return nil
}

func (a *layerAcc) metrics() map[string]float64 {
	m := map[string]float64{}
	for n, v := range a.probes {
		m[n] = v
	}
	msgs := float64(a.msgs)
	usPer := func(ns int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / 1e3 / n
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m["ingest.key_us_per_msg"] = usPer(a.self["ingest.key"], msgs)
	m["ingest.parses_per_msg"] = ratio(msgs+float64(a.parses), msgs)
	m["ingest.cache_hit_ratio"] = ratio(float64(a.hits), msgs)
	m["ingest.keyless_ratio"] = ratio(float64(a.keyless), msgs)
	m["ingest.cache_entries"] = float64(a.entries)
	m["ingest.admit_blocked_share"] = ratio(float64(a.keyGapNS), float64(a.wallNS))
	for _, st := range []string{"parse", "crawl", "interact", "classify", "census", "enrich"} {
		m["crawlerbox."+st+"_us_per_msg"] = usPer(a.self["crawlerbox."+st], msgs)
	}
	m["crawlerbox.other_us_per_msg"] = usPer(a.self["crawlerbox.analyze"], msgs)
	m["crawlerbox.halt_after_parse_ratio"] = ratio(float64(a.halts), float64(a.analyses))
	m["crawlerbox.worker_busy_share"] = ratio(float64(a.analyzeNS), float64(a.wallNS))
	m["browser.visits_per_msg"] = ratio(float64(a.visits), msgs)
	m["browser.us_per_visit"] = usPer(a.self["crawlerbox.crawl"]+a.self["crawlerbox.interact"], float64(a.visits))
	m["trace.coverage_ratio"] = ratio(float64(a.rootNS), a.cpuS*1e9)
	return m
}
