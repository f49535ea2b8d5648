package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crawlerbox/internal/dataset"
	"crawlerbox/internal/ingest"
	"crawlerbox/internal/report"
)

// minSetups is how many times a run sets up, at least, so that setup_s is
// a median rather than one cold sample.
const minSetups = 15

// pass is the measurement of one timed pass over a fresh world.
type pass struct {
	Traced     bool      `json:"traced"`
	SetupS     float64   `json:"setup_s"`
	Msgs       int       `json:"msgs"`
	WallS      float64   `json:"wall_s"`
	Allocs     uint64    `json:"allocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	CPUS       float64   `json:"cpu_s"`
	GCCPUS     float64   `json:"gc_cpu_s"`
	LatencyMS  []float64 `json:"latency_ms"`
	Failed     int       `json:"failed"`
	StreamHash string    `json:"stream_hash"`
}

func (p pass) rate() float64 { return float64(p.Msgs) / p.WallS }

// childResult is what the worker process hands back to the parent.
type childResult struct {
	Passes    []pass             `json:"passes"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Setups    []float64          `json:"setups"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Problem   string             `json:"problem,omitempty"`
}

// logInfo describes an ingest log: which specs a replay admits in this
// pass (no done record yet), in log order, and the largest ID.
type logInfo struct {
	pending []int64
	resumed int
	maxID   int64
}

func readLogInfo(path string) (*logInfo, error) {
	st, err := ingest.ReadLog(path)
	if err != nil {
		return nil, err
	}
	in := &logInfo{resumed: len(st.Done)}
	for _, s := range st.Specs {
		if _, done := st.Done[s.ID]; !done {
			in.pending = append(in.pending, s.ID)
		}
		if s.ID > in.maxID {
			in.maxID = s.ID
		}
	}
	return in, nil
}

// replayPass sets up a fresh world and replays the log through the ingest
// service with one worker and the cache on. The result is checked for
// the service's own invariants before it is returned.
func replayPass(ctx context.Context, logPath string, in *logInfo, seed int64, scale float64, traced bool) (pass, *ingest.Result, *tracer, error) {
	runtime.GC()
	t0 := time.Now()
	pipe, err := buildPipeline(ctx, seed, scale)
	if err != nil {
		return pass{}, nil, nil, err
	}
	p := pass{Traced: traced, SetupS: time.Since(t0).Seconds()}
	h := newHooks(in.maxID, traced)
	if traced {
		h.instrument(pipe)
	}
	keyer := h.keyer(ingest.PipelineKeyer(pipe))
	analyzer := hookedAnalyzer{inner: pipe, h: h}

	m0, c0 := readMem(), readCPU()
	h.origin = time.Now()
	res, err := ingest.Replay(ctx, logPath, analyzer, keyer, ingest.WithWorkers(1))
	wall := time.Since(h.origin)
	m1, c1 := readMem(), readCPU()
	if err != nil {
		return pass{}, nil, nil, err
	}
	p.Msgs = len(in.pending)
	p.WallS = wall.Seconds()
	p.Allocs = m1.mallocs - m0.mallocs
	p.AllocBytes = m1.bytes - m0.bytes
	p.CPUS = c1.total - c0.total
	p.GCCPUS = c1.gc - c0.gc
	if err := checkReplay(res, in); err != nil {
		return pass{}, nil, nil, err
	}
	if len(h.keyStart) != len(in.pending) {
		return pass{}, nil, nil, fmt.Errorf("keyer ran %d times for %d submissions", len(h.keyStart), len(in.pending))
	}
	p.LatencyMS, p.Failed = replayLatencies(res, in, h)
	p.StreamHash, err = streamHash(res)
	if err != nil {
		return pass{}, nil, nil, err
	}
	return p, res, h.tr, nil
}

// replayLatencies derives each admitted submission's verdict latency from
// the hook timestamps, as the time the service spent on that message: its
// admission (the keyer call) plus, for a fresh verdict, its analysis. A
// cached verdict whose source was still in flight also waits for the rest
// of the source's analysis. Time spent queued behind other messages is left
// out: a closed loop keeps the queue full, so that wait only restates the
// queue depth.
func replayLatencies(res *ingest.Result, in *logInfo, h *hooks) ([]float64, int) {
	ordinal := make(map[int64]int, len(in.pending))
	for i, id := range in.pending {
		ordinal[id] = i
	}
	lat := make([]float64, 0, len(in.pending))
	failed := 0
	for _, e := range res.Emitted {
		i, ok := ordinal[e.ID]
		if !ok {
			continue // re-emitted from the log's checkpoint
		}
		if e.Verdict.Outcome == "failed" {
			failed++
		}
		ns := h.keyEnd[i] - h.keyStart[i]
		if e.Provenance == ingest.ProvenanceFresh {
			ns += h.anaEnd[e.ID] - h.anaStart[e.ID]
		} else if src := e.CachedFrom; src > 0 && src < int64(len(h.anaEnd)) && h.anaEnd[src] > h.keyEnd[i] {
			ns += h.anaEnd[src] - max(h.keyEnd[i], h.anaStart[src])
		}
		lat = append(lat, float64(ns)/1e6)
	}
	return lat, failed
}

// streamHash digests the canonical verdict stream, so passes over the same
// log can be compared for identical output.
func streamHash(res *ingest.Result) (string, error) {
	var buf bytes.Buffer
	if err := res.WriteVerdictStream(&buf); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), nil
}

// batchPass deploys a fresh world (its set-up) and times report.Analyze
// over the streamed corpus, with the evidence store and the triage segment
// on, followed by every Run aggregate. Every verdict is delivered when the
// report completes, so each message's latency is the pass's wall time.
func batchPass(ctx context.Context, dir string, seed int64, scale float64, tr *tracer) (pass, error) {
	evPath, tsPath := filepath.Join(dir, "batch.evstore"), filepath.Join(dir, "batch.tstore")
	for _, p := range []string{evPath, tsPath} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return pass{}, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return pass{}, err
	}
	p := pass{Traced: tr != nil, SetupS: time.Since(t0).Seconds(), Msgs: c.Len()}

	m0, c0 := readMem(), readCPU()
	origin := time.Now()
	since := func() int64 { return int64(time.Since(origin)) }
	run, err := report.Analyze(ctx, c, report.WithWorkers(1),
		report.WithEvidencePath(evPath), report.WithTraceStorePath(tsPath))
	analyzed := since()
	if err == nil {
		err = aggregates(run)
	}
	wall := time.Since(origin)
	m1, c1 := readMem(), readCPU()
	if err != nil {
		return pass{}, err
	}
	if tr != nil {
		tr.add(span{Name: "report.analyze", Start: 0, End: analyzed, Parent: -1})
		tr.add(span{Name: "report.aggregate", Start: analyzed, End: int64(wall), Parent: -1})
	}
	p.WallS = wall.Seconds()
	p.Allocs = m1.mallocs - m0.mallocs
	p.AllocBytes = m1.bytes - m0.bytes
	p.CPUS = c1.total - c0.total
	p.GCCPUS = c1.gc - c0.gc
	p.Failed = run.Errors
	p.LatencyMS = make([]float64, p.Msgs)
	for i := range p.LatencyMS {
		p.LatencyMS[i] = float64(wall) / 1e6
	}
	sum, err := fileHash(tsPath)
	if err != nil {
		return pass{}, err
	}
	p.StreamHash = sum
	return p, nil
}

// aggregateSink keeps the aggregates' results reachable.
var aggregateSink int

// aggregates computes every Run aggregate the report renders.
func aggregates(run *report.Run) error {
	n := len(run.Disposition()) + len(run.MonthlySeries()) + len(run.Table2())
	if _, err := run.Figure2(); err != nil {
		return fmt.Errorf("figure 2: %w", err)
	}
	if _, err := run.Figure3(); err != nil {
		return fmt.Errorf("figure 3: %w", err)
	}
	sp := run.Spear()
	n += sp.Active + run.HotLoadReferrals() + len(run.DNSVolumes().Top3Totals)
	n += run.DomainSyntax().Domains + len(run.CloakPrevalence()) + len(run.NonTargetedBrands())
	ts, rc := run.TurnstileShare()
	aggregateSink = n + int(ts+rc)
	return nil
}

func fileHash(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// renderPass times the dataset generator alone: a full Each over a fresh
// streamed corpus. Returns µs per message.
func renderPass(seed int64, scale float64) (float64, error) {
	c, err := dataset.Stream(dataset.Config{Seed: seed, Scale: scale})
	if err != nil {
		return 0, err
	}
	n := 0
	start := time.Now()
	c.Each(func(_ int, m *dataset.Message) bool {
		n += len(m.Raw) & 1
		return true
	})
	aggregateSink += n
	return float64(time.Since(start)) / 1e3 / float64(c.Len()), nil
}
