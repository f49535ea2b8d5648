package ingest

import (
	"context"

	"crawlerbox/internal/obs"
	"crawlerbox/internal/tracestore"
)

// Replay runs an ingest log to completion: this is the batch mode of the
// service API. The log is recovered with Service.Resume, the path a
// restarted daemon takes: done records re-emit verbatim, and every spec
// without a done record is analyzed, all under the same admission path a
// live daemon uses — so the returned verdict stream is byte-identical for
// any worker count, and identical whether the log is replayed in one pass
// or killed and resumed partway through. Replay never writes to the log;
// it is a pure function of the log's content. The log's messages are
// never all in memory at once: Resume copies only the specs it admits,
// and admission holds at most 3×workers fresh analyses.
func Replay(ctx context.Context, logPath string, a Analyzer, keyer KeyFunc, opts ...Option) (*Result, error) {
	s := NewService(ctx, a, keyer, nil, opts...)
	if err := s.Resume(ctx, logPath); err != nil {
		// Drain what was admitted before surfacing the error, so workers
		// never leak.
		s.Drain()
		return nil, err
	}
	return s.Drain()
}

// WriteTraceStore persists the result as a tracestore segment: one
// verdict row per emission (cached emissions carry the stored row under
// their own ID), joined with the traces and metrics the caller's
// observer collected for the fresh analyses. The segment is canonical —
// rows land in message-ID order — so it federates with batch-run
// segments under tracestore.Open's multi-segment reads.
func (r *Result) WriteTraceStore(path string, traces []*obs.Trace, metrics []obs.Point) error {
	w, err := tracestore.Create(path)
	if err != nil {
		return err
	}
	for i := range r.Emitted {
		w.Add(r.Emitted[i].Verdict)
	}
	if err := w.Finalize(traces, metrics); err != nil {
		w.Close()
		return err
	}
	return nil
}
