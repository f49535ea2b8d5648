package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"time"

	"crawlerbox/internal/browser"
	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/ingest"
)

// hooks wraps the public extension points of one timed pass. Untraced, it
// records only what the end-to-end latency needs: when each keyer call
// (admission) and each fresh analysis started and ended. Traced, it also
// records spans and captures probe inputs.
type hooks struct {
	origin           time.Time
	keyStart, keyEnd []int64 // by keyer call ordinal, ns since origin
	anaStart, anaEnd []int64 // by message ID; 0 = not analysed in this pass
	tr               *tracer // nil on the untraced path
}

func newHooks(maxID int64, traced bool) *hooks {
	h := &hooks{origin: time.Now(), anaStart: make([]int64, maxID+1), anaEnd: make([]int64, maxID+1)}
	if traced {
		h.tr = &tracer{cur: -1}
	}
	return h
}

func (h *hooks) now() int64 { return int64(time.Since(h.origin)) }

// keyer wraps an ingest.KeyFunc. Admission is serialised by the service,
// so the wrapper runs on one goroutine at a time.
func (h *hooks) keyer(inner ingest.KeyFunc) ingest.KeyFunc {
	return func(raw []byte) string {
		start := h.now()
		key := inner(raw)
		end := h.now()
		h.keyStart = append(h.keyStart, start)
		h.keyEnd = append(h.keyEnd, end)
		if h.tr != nil {
			h.tr.add(span{Name: "ingest.key", Start: start, End: end, Parent: -1})
			h.tr.cap.raws = append(h.tr.cap.raws, raw)
			if key == "" {
				h.tr.keyless++
			}
		}
		return key
	}
}

// analyzer wraps an ingest.Analyzer.
type hookedAnalyzer struct {
	inner ingest.Analyzer
	h     *hooks
}

func (a hookedAnalyzer) Analyze(ctx context.Context, spec crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error) {
	t := a.h.tr
	start := a.h.now()
	a.h.anaStart[spec.ID] = start
	if t == nil {
		ma, err := a.inner.Analyze(ctx, spec)
		a.h.anaEnd[spec.ID] = a.h.now()
		return ma, err
	}
	idx := t.add(span{Name: "crawlerbox.analyze", Start: start, Parent: -1, Msg: spec.ID})
	t.cur, t.curMsg = idx, spec.ID
	ma, err := a.inner.Analyze(ctx, spec)
	end := a.h.now()
	a.h.anaEnd[spec.ID] = end
	t.end(idx, end)
	t.cur = -1
	t.analyses++
	if ma != nil {
		t.cap.analysis(ma)
	}
	return ma, err
}

// instrument installs the traced-only wrappers on a pipeline: a timing
// decorator around every stage and a counter on NewBrowser (one browser
// per visit).
func (h *hooks) instrument(pipe *crawlerbox.Pipeline) {
	t := h.tr
	stages := pipe.Stages
	if stages == nil {
		stages = crawlerbox.DefaultStages()
	}
	wrapped := make([]crawlerbox.Stage, len(stages))
	for i, st := range stages {
		wrapped[i] = tracedStage{inner: st, h: h}
	}
	pipe.Stages = wrapped
	newBrowser := pipe.NewBrowser
	pipe.NewBrowser = func(seed int64) *browser.Browser {
		if t.cur >= 0 {
			t.visits++
		}
		return newBrowser(seed)
	}
}

// tracedStage is a Stage decorator that records one span per Run, child of
// the enclosing analyze span.
type tracedStage struct {
	inner crawlerbox.Stage
	h     *hooks
}

func (s tracedStage) Name() string { return s.inner.Name() }

func (s tracedStage) Run(ctx context.Context, ex *crawlerbox.Execution) error {
	t := s.h.tr
	start := s.h.now()
	err := s.inner.Run(ctx, ex)
	t.add(span{Name: "crawlerbox." + s.inner.Name(), Start: start, End: s.h.now(), Parent: t.cur, Msg: t.curMsg})
	if s.inner.Name() == "parse" && errors.Is(err, crawlerbox.ErrHalt) {
		t.halts++
	}
	if s.inner.Name() == "parse" {
		t.parses++
	}
	return err
}

// span is one timed interval recorded by the benchmark's wrappers. Parent
// is the index of the enclosing span in the same pass, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Msg    int64  `json:"msg,omitempty"`
}

// tracer keeps one traced pass's spans in memory. The keyer runs on the
// admission goroutine and the stages on the single worker, so appends take
// a lock; the counters are each touched by one goroutine only.
type tracer struct {
	mu    sync.Mutex
	spans []span

	cur    int // open analyze span (worker goroutine only)
	curMsg int64

	analyses, parses, halts, visits int // worker goroutine
	keyless                         int // admission goroutine
	cap                             capture
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(idx int, end int64) {
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in ns: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[i])
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// writeSpans appends a pass's spans to a JSON-lines file, each line tagged
// with the pass it came from.
func writeSpans(path string, pass string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		rec := struct {
			Pass string `json:"pass"`
			ID   int    `json:"id"`
			span
		}{pass, i, spans[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
