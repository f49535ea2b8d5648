package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"crawlerbox/internal/ingest"
)

// runInProcess generates the workload's inputs, runs the timed passes in a
// worker process, and checks the verdicts it left behind.
func runInProcess(ctx context.Context, o options) (*outcome, error) {
	specs, err := corpusSpecs(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	replayLog := filepath.Join(o.dir, "replay.log")
	if err := writeLog(replayLog, specs, nil); err != nil {
		return nil, err
	}
	var ref *ingest.Result
	var origin map[int64]int64
	if o.workload != "replay" {
		if ref, _, err = referenceReplay(ctx, replayLog, o.seed, o.scale); err != nil {
			return nil, err
		}
	}
	if o.workload == "rereport" {
		var copies []ingest.Spec
		copies, origin = rereports(o.seed, specs, ref, int64(len(specs))+1)
		all := append(append([]ingest.Spec(nil), specs...), copies...)
		if err := writeLog(filepath.Join(o.dir, "rereport.log"), all, byID(ref.Emitted)); err != nil {
			return nil, err
		}
	}
	specs = nil // the worker reads the logs; drop the generator's copy

	child, err := spawnChild(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var plain []pass
	for _, p := range child.Passes {
		out.attempted += p.Msgs
		out.failed += p.Failed
		if !p.Traced {
			plain = append(plain, p)
		}
	}
	if child.Problem != "" {
		out.problem = child.Problem
		return out, nil
	}
	switch o.workload {
	case "replay", "rereport":
		em, err := readStream(filepath.Join(o.dir, "verdicts.jsonl"))
		if err != nil {
			return nil, err
		}
		if o.workload == "replay" {
			err = checkCachedSources(em)
		} else {
			err = checkRereports(em, origin)
		}
		if err != nil {
			out.problem = err.Error()
		}
	case "batch":
		if err := checkBatch(filepath.Join(o.dir, "batch.tstore"), ref); err != nil {
			out.problem = err.Error()
		}
	}

	if o.trace {
		out.metrics = child.Layers
		out.notes = append(out.notes, "spans: "+o.spans)
		return out, nil
	}
	var rates, bytesPer, allocsPer, p50, p99 []float64
	samples := 0
	for _, p := range plain {
		rates = append(rates, p.rate())
		bytesPer = append(bytesPer, float64(p.AllocBytes)/float64(p.Msgs))
		allocsPer = append(allocsPer, float64(p.Allocs)/float64(p.Msgs))
		p50 = append(p50, quantile(p.LatencyMS, 0.50))
		p99 = append(p99, quantile(p.LatencyMS, 0.99))
		samples += len(p.LatencyMS)
	}
	out.metrics["setup_s"] = median(child.Setups)
	out.metrics["msgs_per_s"] = median(rates)
	out.metrics["verdict_p50_ms"] = median(p50)
	out.metrics["verdict_p99_ms"] = median(p99)
	out.metrics["alloc_bytes_per_msg"] = median(bytesPer)
	out.metrics["allocs_per_msg"] = median(allocsPer)
	out.metrics["peak_rss_mb"] = child.PeakRSSMB
	out.metrics["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	out.notes = append(out.notes, fmt.Sprintf("%d timed passes of %d submissions, %d set-ups, %d latency samples; medians over passes",
		len(plain), plain[0].Msgs, len(child.Setups), samples))
	for i, p := range plain {
		out.notes = append(out.notes, fmt.Sprintf("  pass %d: %.1f msgs/s, p50 %.3f ms, p99 %.3f ms, %.1f CPU-us/msg, set-up %.4f s",
			i, p.rate(), quantile(p.LatencyMS, 0.5), quantile(p.LatencyMS, 0.99), p.CPUS*1e6/float64(p.Msgs), p.SetupS))
	}
	return out, nil
}

// spawnChild runs the worker process for o and returns its result.
func spawnChild(o options) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-child", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"-dir", o.dir, "-spans", o.spans)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	runErr := cmd.Run()
	b, err := os.ReadFile(filepath.Join(o.dir, "child.json"))
	if err != nil {
		if runErr != nil {
			return res, fmt.Errorf("worker process: %w", runErr)
		}
		return res, err
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, err
	}
	if runErr != nil && res.Problem == "" {
		return res, fmt.Errorf("worker process: %w", runErr)
	}
	return res, nil
}

func readStream(path string) ([]ingest.Emitted, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var em []ingest.Emitted
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var e ingest.Emitted
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		em = append(em, e)
	}
	return em, sc.Err()
}

// runDaemon measures the real daemon binary over HTTP. Each pass starts a
// fresh daemon (exec to the first /api/stats answer is a set-up sample),
// submits the whole corpus through one calling client, and stops the
// daemon; the verdicts are then checked against an in-process replay of
// the same specs.
func runDaemon(ctx context.Context, o options) (*outcome, error) {
	specs, err := corpusSpecs(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(specs))
	ids := make([]int64, len(specs))
	for i, s := range specs {
		if bodies[i], err = json.Marshal(s); err != nil {
			return nil, err
		}
		ids[i] = s.ID
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	journal := filepath.Join(o.dir, "daemon.journal")

	var setups, rss []float64
	var plain, traced []*callResult
	var journalBytes float64
	for i := 0; ; i++ {
		var elapsed float64
		for _, r := range append(append([]*callResult(nil), plain...), traced...) {
			elapsed += r.wallS
		}
		if elapsed >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
		d, err := startDaemon(ctx, o, journal, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		tracedPass := o.trace && i%2 == 1
		res, callErr := callLoop(client, d.base, bodies, ids, tracedPass)
		client.CloseIdleConnections()
		peak, rssErr := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		stopErr := d.stop()
		for _, err := range []error{callErr, rssErr, stopErr} {
			if err != nil {
				return nil, err
			}
		}
		if tracedPass {
			traced = append(traced, res)
			continue
		}
		plain = append(plain, res)
		rss = append(rss, peak)
		if fi, err := os.Stat(journal); err == nil && journalBytes == 0 {
			journalBytes = float64(fi.Size()) / float64(res.submitted)
		}
	}
	for len(setups) < minSetups {
		d, err := startDaemon(ctx, o, journal, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		client.CloseIdleConnections()
		if err := d.stop(); err != nil {
			return nil, err
		}
	}

	out := &outcome{metrics: map[string]float64{}}
	all := append(append([]*callResult(nil), plain...), traced...)
	for _, r := range all {
		out.attempted += len(r.latencyMS)
		out.failed += r.refused + r.missing
	}
	// The daemon admits the specs in submission order, so an in-process
	// replay of the same log must give the same verdicts. Its allocation
	// counts stand in for the daemon's, which the binary does not expose.
	refLog := filepath.Join(o.dir, "daemon-ref.log")
	if err := writeLog(refLog, specs, nil); err != nil {
		return nil, err
	}
	ref, mem, err := referenceReplay(ctx, refLog, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	for _, r := range all {
		if err := checkDaemon(r.got, ref); err != nil {
			out.problem = err.Error()
		}
	}
	if o.trace {
		tr := traced[0]
		if err := writeSpans(o.spans, "daemon", append(tr.submits, tr.polls...)); err != nil {
			return nil, err
		}
		us := func(spans []span) []float64 {
			d := make([]float64, len(spans))
			for i, s := range spans {
				d[i] = float64(s.End-s.Start) / 1e3
			}
			return d
		}
		out.metrics["ingest.submit_us_p50"] = quantile(us(tr.submits), 0.50)
		out.metrics["ingest.submit_us_p99"] = quantile(us(tr.submits), 0.99)
		out.metrics["ingest.verdict_poll_us_p50"] = quantile(us(tr.polls), 0.50)
		out.metrics["ingest.journal_bytes_per_msg"] = journalBytes
		out.metrics["trace.overhead_ratio"] = plain[0].rate / tr.rate
		out.notes = append(out.notes, "spans: "+o.spans,
			"client-side spans only: the daemon's own layers run in another process")
		return out, nil
	}
	var rates, p50, p99 []float64
	for _, r := range plain {
		rates = append(rates, r.rate)
		p50 = append(p50, quantile(r.latencyMS, 0.50))
		p99 = append(p99, quantile(r.latencyMS, 0.99))
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["msgs_per_s"] = median(rates)
	out.metrics["verdict_p50_ms"] = median(p50)
	out.metrics["verdict_p99_ms"] = median(p99)
	out.metrics["alloc_bytes_per_msg"] = float64(mem.bytes) / float64(len(specs))
	out.metrics["allocs_per_msg"] = float64(mem.mallocs) / float64(len(specs))
	out.metrics["peak_rss_mb"] = median(rss)
	out.metrics["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	out.notes = append(out.notes, fmt.Sprintf("%d passes of %d submissions, one at a time, %d set-ups; medians over passes",
		len(plain), len(specs), len(setups)))
	for i, r := range plain {
		out.notes = append(out.notes, fmt.Sprintf("  pass %d: %.1f msgs/s, p50 %.3f ms, p99 %.3f ms, %d refused, %d missing, daemon peak RSS %.1f MB",
			i, r.rate, p50[i], p99[i], r.refused, r.missing, rss[i]))
	}
	return out, nil
}
