// Package tracestore is the persistent, queryable triage index over the
// observability layer's output: span trees, metrics snapshots, and verdict
// evidence, written during report.Analyze and served afterwards by
// cmd/obsreport — the TraceScope-style workflow where analysts adjudicate
// checklists over *recorded* evidence instead of re-crawling.
//
// A store is one evstore segment (the append-only CRC-checked record format
// of DESIGN.md §12) holding, per analyzed message, a KindSpanBatch record
// (the message's span tree as trace JSONL) and a KindVerdict record (the
// Verdict row: outcome, domains, cloak flags, and the per-visit adjudication
// facts), followed by one KindMetrics record (the run's metric snapshot) and
// a trailing KindTraceIndex record — an inverted index keyed by domain,
// outcome, error-kind, stage, span-status, and cloak flag that answers
// queries without scanning the segment.
//
// Determinism contract: a finalized segment's bytes depend only on the
// analyzed corpus — never on worker count or scheduling — because Finalize
// writes records in trace-ID order and every payload codec is canonical
// (JSON with fixed field order, sorted map keys, sorted posting lists).
// Compact folds one or more segments into a fresh segment under the same
// canonical form, so compacting a finalized segment reproduces it
// byte-for-byte, and query results are identical before and after
// compaction. The executable proof lives in the workers-1-vs-8 and
// build-vs-compact tests and the `make triagecheck` golden gate.
package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/evstore"
	"crawlerbox/internal/obs"
)

// Version is the index format version stamped into every segment's
// KindTraceIndex record; readers reject other versions.
const Version = 1

// OutcomeFailed is the verdict outcome recorded for a message whose
// analysis failed outright (no MessageAnalysis was produced). It matches
// the "(failed)" bucket of the obs outcome tally vocabulary, minus the
// parentheses so it stays query-friendly.
const OutcomeFailed = "failed"

// Verdict is one message's row in the triage index: the stored outcome,
// the evidence facts it was adjudicated from, and the trace-derived shape
// of its analysis. The JSON encoding of this struct is the on-disk
// KindVerdict payload, so field order and omitempty choices are part of
// the format.
type Verdict struct {
	// ID is the trace (message) ID, unique within a segment.
	ID int64 `json:"id"`
	// Domain is the message's primary domain: the landing host when
	// enrichment found one, else the first visited host.
	Domain string `json:"domain,omitempty"`
	// Hosts are all distinct visited hosts, sorted; every one is indexed
	// under the domain dimension.
	Hosts []string `json:"hosts,omitempty"`
	// Outcome is the stored disposition (Outcome.String(), or
	// OutcomeFailed for analyses that errored outright).
	Outcome string `json:"outcome"`
	// ErrorKind is the stored error class ("none" outside error-page).
	ErrorKind string `json:"error_kind,omitempty"`
	// SpearBrand is the matched brand for spear-phishing verdicts.
	SpearBrand string `json:"spear_brand,omitempty"`
	// Cloaks are the observed evasion techniques (census vocabulary).
	Cloaks []string `json:"cloaks,omitempty"`
	// Adjudicable reports whether the Classify stage ran: its verdict can
	// be re-derived from Facts alone. Parse-halted messages (no-resource,
	// download) and failed analyses carry their outcome as a fixed fact.
	Adjudicable bool `json:"adjudicable"`
	// Facts are the per-visit adjudication facts the Classify stage
	// distilled — the stored evidence Readjudicate feeds back through
	// crawlerbox.Adjudicate.
	Facts []crawlerbox.VisitFact `json:"facts,omitempty"`
	// Err is the analysis failure text for OutcomeFailed rows.
	Err string `json:"err,omitempty"`

	// Stages lists the distinct stage-span names in execution order
	// (filled from the trace at Finalize).
	Stages []string `json:"stages,omitempty"`
	// SpanStatuses lists the distinct span statuses observed, sorted.
	SpanStatuses []string `json:"span_statuses,omitempty"`
	// Spans is the trace's span count.
	Spans int `json:"spans,omitempty"`
	// DurationNS is the root span's virtual extent in nanoseconds.
	DurationNS int64 `json:"duration_ns,omitempty"`
}

// VerdictOf distills one completed analysis into its verdict row. A nil
// analysis (the corpus runner reported an error) records an OutcomeFailed
// row carrying the error text. Trace-derived fields (Stages, SpanStatuses,
// Spans, DurationNS) are filled later, at Finalize, when the span trees
// are joined in.
func VerdictOf(id int64, ma *crawlerbox.MessageAnalysis, analysisErr error) Verdict {
	v := Verdict{ID: id}
	if ma == nil {
		v.Outcome = OutcomeFailed
		if analysisErr != nil {
			v.Err = analysisErr.Error()
		}
		return v
	}
	v.Outcome = ma.Outcome.String()
	v.ErrorKind = ma.ErrorKind.String()
	if ma.SpearPhish {
		v.SpearBrand = ma.Brand
	}
	v.Cloaks = ma.Cloaks.Flags()
	if ma.Parse != nil && ma.Parse.NoisePadded {
		v.Cloaks = append(v.Cloaks, "noise-padding")
	}
	if ma.Parse != nil && ma.Parse.FaultyQR {
		v.Cloaks = append(v.Cloaks, "faulty-qr")
	}
	v.Adjudicable = ma.Facts != nil
	v.Facts = ma.Facts
	hosts := map[string]bool{}
	for i := range ma.Facts {
		if h := ma.Facts[i].Host; h != "" && !hosts[h] {
			hosts[h] = true
			v.Hosts = append(v.Hosts, h)
		}
	}
	if ma.Landing != nil && ma.Landing.Host != "" {
		if !hosts[ma.Landing.Host] {
			v.Hosts = append(v.Hosts, ma.Landing.Host)
		}
		v.Domain = ma.Landing.Host
	} else if len(v.Hosts) > 0 {
		v.Domain = v.Hosts[0]
	}
	sort.Strings(v.Hosts)
	return v
}

// Writer accumulates verdict rows during a corpus run and writes the
// segment at Finalize. Rows must be added in strictly ascending trace-ID
// order — report.AnalyzeSpecs commits them in spec order — so the segment
// bytes are independent of scheduling without a sort. Rows are buffered
// in RAM (a few hundred bytes each — the bulky span trees stay in the
// observer until Finalize). Add is safe for concurrent use.
type Writer struct {
	mu        sync.Mutex
	ev        *evstore.Store
	verdicts  []Verdict // guarded by mu
	finalized bool      // guarded by mu
}

// Create creates (or truncates) a segment writer at path.
func Create(path string) (*Writer, error) {
	ev, err := evstore.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{ev: ev}, nil
}

// Add buffers one verdict row for the segment. Its ID must be greater than
// every ID added before; Finalize fails otherwise.
func (w *Writer) Add(v Verdict) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.verdicts = append(w.verdicts, v)
}

// Finalize joins the buffered verdicts with their span trees, writes every
// record in trace-ID order — span batch and verdict per message, then the
// metrics snapshot, then the inverted index — and closes the segment. It
// fails before writing any record when a trace ID repeats or the rows were
// added out of order.
func (w *Writer) Finalize(traces []*obs.Trace, metrics []obs.Point) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		return errors.New("tracestore: segment already finalized")
	}
	for i := 1; i < len(w.verdicts); i++ {
		prev, id := w.verdicts[i-1].ID, w.verdicts[i].ID
		if id == prev {
			w.ev.Close()
			return fmt.Errorf("tracestore: duplicate trace id %d", id)
		}
		if id < prev {
			w.ev.Close()
			return fmt.Errorf("tracestore: trace id %d added after %d", id, prev)
		}
	}
	byID := make(map[int64]*obs.Trace, len(traces))
	for _, t := range traces {
		byID[t.ID()] = t
	}
	idx := newSegIndex()
	var spanBuf bytes.Buffer
	for i := range w.verdicts {
		v := &w.verdicts[i]
		spanBuf.Reset()
		if t := byID[v.ID]; t != nil {
			if err := obs.WriteJSONL(&spanBuf, []*obs.Trace{t}); err != nil {
				w.ev.Close()
				return err
			}
			annotateFromTrace(v, t)
		}
		if err := writeMessage(w.ev, idx, v, spanBuf.Bytes()); err != nil {
			w.ev.Close()
			return err
		}
	}
	if err := writeFooter(w.ev, idx, metrics); err != nil {
		w.ev.Close()
		return err
	}
	w.finalized = true
	return w.ev.Close()
}

// writeMessage appends one message's span batch and verdict records and
// registers them in the index. Shared by Finalize and Compact so the two
// paths cannot diverge in record layout.
func writeMessage(ev *evstore.Store, idx *segIndex, v *Verdict, spans []byte) error {
	sh, err := ev.Append(evstore.KindSpanBatch, spans)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	vh, err := ev.Append(evstore.KindVerdict, payload)
	if err != nil {
		return err
	}
	idx.add(v, sh, vh)
	return nil
}

// writeFooter appends the metrics snapshot and the trailing index record.
func writeFooter(ev *evstore.Store, idx *segIndex, metrics []obs.Point) error {
	mpayload, err := json.Marshal(metrics)
	if err != nil {
		return err
	}
	if _, err := ev.Append(evstore.KindMetrics, mpayload); err != nil {
		return err
	}
	ipayload, err := json.Marshal(idx)
	if err != nil {
		return err
	}
	_, err = ev.Append(evstore.KindTraceIndex, ipayload)
	return err
}

// Close aborts an unfinalized writer (idempotent; Finalize already closed
// the store on success, so a deferred Close after Finalize is a no-op).
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		return nil
	}
	w.finalized = true
	return w.ev.Close()
}

// annotateFromTrace fills a verdict's trace-derived fields: distinct stage
// names in execution order, distinct span statuses sorted, span count, and
// the root span's virtual duration.
func annotateFromTrace(v *Verdict, t *obs.Trace) {
	spans := t.Spans()
	v.Spans = len(spans)
	seenStage := map[string]bool{}
	seenStatus := map[string]bool{}
	for _, s := range spans {
		if s.Kind == obs.SpanStage && !seenStage[s.Name] {
			seenStage[s.Name] = true
			v.Stages = append(v.Stages, s.Name)
		}
		if s.Status != "" && !seenStatus[s.Status] {
			seenStatus[s.Status] = true
			v.SpanStatuses = append(v.SpanStatuses, s.Status)
		}
		if s.Parent == 0 {
			v.DurationNS = s.Duration().Nanoseconds()
		}
	}
	sort.Strings(v.SpanStatuses)
}

// Readjudication is the result of re-deriving a verdict from its stored
// facts — no crawl, no live pipeline, just crawlerbox.Adjudicate over the
// evidence the Classify stage persisted.
type Readjudication struct {
	ID          int64 `json:"id"`
	Adjudicable bool  `json:"adjudicable"`
	// StoredOutcome / StoredErrorKind are what the live pipeline recorded.
	StoredOutcome   string `json:"stored_outcome"`
	StoredErrorKind string `json:"stored_error_kind,omitempty"`
	// Outcome / ErrorKind are the re-adjudicated disposition. For
	// non-adjudicable rows (parse-halted or failed analyses) the stored
	// outcome is a fixed fact and is carried through unchanged.
	Outcome   string `json:"outcome"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Match reports stored == re-adjudicated; false flags drift between
	// the stored verdict and the current adjudication rules.
	Match bool `json:"match"`
}

// ReadjudicateVerdict re-derives a verdict row's outcome from its stored
// facts. It is pure: same row, same result, on any machine, with no
// network or pipeline state.
func ReadjudicateVerdict(v Verdict) Readjudication {
	r := Readjudication{
		ID:              v.ID,
		Adjudicable:     v.Adjudicable,
		StoredOutcome:   v.Outcome,
		StoredErrorKind: v.ErrorKind,
	}
	if !v.Adjudicable {
		r.Outcome = v.Outcome
		r.ErrorKind = v.ErrorKind
		r.Match = true
		return r
	}
	outcome, kind := crawlerbox.Adjudicate(v.Facts)
	r.Outcome = outcome.String()
	r.ErrorKind = kind.String()
	r.Match = r.Outcome == v.Outcome && r.ErrorKind == v.ErrorKind
	return r
}
