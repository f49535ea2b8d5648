// Package ingest turns the batch analysis pipeline into a continuous
// service: reported message specs are submitted one at a time (or over
// HTTP via cmd/crawlerboxd), journaled to an append-only ingest log,
// admitted through a verdict dedup cache keyed by canonical URL,
// and fed through one bounded queue, with backpressure and admission
// control, to the pipeline's worker pool (crawlerbox.AnalyzeStream).
//
// The cache is the scaling lever: the paper measures a mean of 2.62
// reported messages per landing domain (max 58), so at production volume
// most submissions are cache hits that re-emit a stored verdict with a
// "cached" provenance mark instead of running the crawl pipeline. Hit or
// miss is decided at admission time, under the cache lock, in
// submission order — so provenance marks and hit counters are a pure
// function of the submission sequence, never of scheduling.
//
// Determinism contract: replaying the same ingest log produces a
// byte-identical verdict stream for any worker count, across a kill and
// resume from the journal's checkpoint, and with the cache disabled the
// verdict outcomes agree entry for entry (only provenance and cost
// differ). The executable proof is TestReplayDeterminism and the
// `make servecheck` gate.
package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"crawlerbox/internal/crawlerbox"
	"crawlerbox/internal/tracestore"
)

// ErrOverloaded is returned by Submit when admission control rejects the
// submission: the count of admitted-but-unemitted messages is at the
// configured limit. The caller sheds load (an HTTP server answers 503);
// the spec is NOT journaled, so a later resubmission is safe.
var ErrOverloaded = errors.New("ingest: service overloaded")

// ErrDuplicateID is returned by Submit for a message ID the service has
// already accepted or recovered from its journal. The spec is not
// journaled: a journal holding one ID twice cannot be read back, and the
// ID keys the verdict.
var ErrDuplicateID = errors.New("ingest: duplicate message id")

// ErrDraining is returned by Submit after Drain has begun.
var ErrDraining = errors.New("ingest: service draining")

// Analyzer runs one message spec through the analysis pipeline.
// *crawlerbox.Pipeline is the production implementation.
type Analyzer interface {
	Analyze(ctx context.Context, spec crawlerbox.MessageSpec) (*crawlerbox.MessageAnalysis, error)
}

// KeyFunc derives the verdict-cache key from raw message bytes. An empty
// key marks the message uncacheable (no URL): it always runs fresh.
type KeyFunc func(raw []byte) string

// PipelineKeyer derives the cache key with the pipeline's own parse phase:
// the first canonical URL extracted from the message. Gateway URL rewrites
// are decoded during extraction (crawlerbox/parse), so a Safe Links
// wrapping of an already-seen landing URL is a cache hit, not a miss.
func PipelineKeyer(p *crawlerbox.Pipeline) KeyFunc {
	return func(raw []byte) string {
		res, err := p.ParseMessage(raw)
		if err != nil || len(res.URLs) == 0 {
			return ""
		}
		return res.URLs[0].URL
	}
}

// Provenance marks of an emitted verdict.
const (
	// ProvenanceFresh marks a verdict produced by a full pipeline run.
	ProvenanceFresh = "fresh"
	// ProvenanceCached marks a verdict re-emitted from the dedup cache.
	ProvenanceCached = "cached"
)

// Emitted is one verdict emission: the service's output unit and the
// KindIngestDone journal payload. Field order is part of the on-disk and
// stream format.
type Emitted struct {
	// ID is the submission's message ID.
	ID int64 `json:"id"`
	// Provenance is ProvenanceFresh or ProvenanceCached.
	Provenance string `json:"provenance"`
	// Key is the verdict-cache key (canonical URL); empty for uncacheable
	// messages.
	Key string `json:"key,omitempty"`
	// CachedFrom is the source message whose analysis produced a cached
	// verdict; zero for fresh emissions.
	CachedFrom int64 `json:"cached_from,omitempty"`
	// Verdict is the triage row, with ID rewritten to this submission's.
	Verdict tracestore.Verdict `json:"verdict"`
}

// Counters are the service's monotonic statistics. Every counter is
// assigned at admission or completion of work fixed by the submission
// sequence, so replaying a log yields identical counters for any worker
// count.
type Counters struct {
	// Submitted counts accepted submissions (journaled specs).
	Submitted int64 `json:"submitted"`
	// Fresh counts submissions that ran the full pipeline.
	Fresh int64 `json:"fresh"`
	// CacheHits counts submissions served from the verdict cache
	// (directly or as waiters on an in-flight analysis).
	CacheHits int64 `json:"cache_hits"`
	// Keyless counts submissions with no extractable URL (always fresh).
	Keyless int64 `json:"keyless"`
	// Rejected counts submissions shed by admission control.
	Rejected int64 `json:"rejected"`
	// Resumed counts verdicts re-emitted verbatim from a checkpoint.
	Resumed int64 `json:"resumed"`
}

// Result is a drained service's output: every emission sorted by message
// ID plus the final counters. WriteVerdictStream renders the canonical
// byte stream the determinism contract is pinned on.
type Result struct {
	Emitted  []Emitted
	Counters Counters
}

// WriteVerdictStream writes the canonical verdict stream: one JSON line
// per emission in ascending message-ID order. Replaying the same ingest
// log writes identical bytes for any worker count.
func (r *Result) WriteVerdictStream(w io.Writer) error {
	for i := range r.Emitted {
		line, err := json.Marshal(&r.Emitted[i])
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// options collects the service configuration assembled by Option values —
// the same functional-options surface report.Analyze uses, so batch runs,
// replays, and the daemon are configured in one vocabulary.
type options struct {
	workers    int
	maxPending int
	cacheOff   bool
}

// Option configures one aspect of a Service.
type Option func(*options)

// WithWorkers sets the analysis worker-pool size (default 1). At most
// three fresh analyses per worker are queued or running; a fresh
// submission beyond that blocks Submit — the backpressure that keeps peak
// memory O(workers).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMaxPending arms admission control: when more than n submissions are
// admitted but not yet emitted, Submit fails with ErrOverloaded instead
// of blocking. Zero (the default) disables shedding — replays run to
// completion unconditionally.
func WithMaxPending(n int) Option {
	return func(o *options) { o.maxPending = n }
}

// WithCache enables or disables the verdict dedup cache (default on).
// Disabled, every submission runs the full pipeline; verdict outcomes are
// identical either way — only provenance and cost differ.
func WithCache(enabled bool) Option {
	return func(o *options) { o.cacheOff = !enabled }
}

// job is one fresh analysis in flight: the submission it answers and its
// cache key.
type job struct {
	id  int64
	key string
}

// Service is the continuous-ingest daemon core. Submissions flow through
// admission (admission control, cache consult, queue slot, journal) into
// one bounded work queue drained by crawlerbox.AnalyzeStream; each
// completed analysis fills its cache entry, flushing any waiters. Drain
// stops intake, waits for in-flight work, and returns the Result.
type Service struct {
	analyzer Analyzer
	keyer    KeyFunc
	o        options
	log      *Log
	cache    *verdictCache
	jobs     chan crawlerbox.IndexedSpec
	// slots holds one token per fresh analysis queued or running; it has
	// the capacity of jobs, so a send to jobs by a slot holder never blocks.
	slots   chan struct{}
	wg      sync.WaitGroup
	started bool

	// admitMu serializes admission so journal order, cache consults, and
	// counters all see one total submission order.
	admitMu sync.Mutex
	// mu guards the emission buffer, counters, pending count, and the
	// in-flight table of queued and running jobs by queue Index.
	mu       sync.Mutex
	emitted  []Emitted   // guarded by mu
	counters Counters    // guarded by mu
	pending  int         // guarded by mu
	inflight map[int]job // guarded by mu
	nextJob  int         // guarded by mu
	draining bool        // read/written under admitMu (see submitLocked/Drain)
	emitErr  error       // guarded by mu
	// ids holds every accepted or resumed message ID; read/written under
	// admitMu (see submitLocked/resumeDone).
	ids map[int64]struct{}
}

// NewService assembles a service around an analyzer and a cache keyer.
// A nil log runs without a journal (no checkpoint/resume); see WithLog.
func NewService(a Analyzer, keyer KeyFunc, log *Log, opts ...Option) *Service {
	o := options{workers: 1}
	for _, fn := range opts {
		fn(&o)
	}
	if o.workers < 1 {
		o.workers = 1
	}
	// One running and two queued analyses per worker keep every worker
	// fed while Submit blocks for backpressure.
	depth := 3 * o.workers
	s := &Service{
		analyzer: a, keyer: keyer, o: o, log: log,
		jobs:     make(chan crawlerbox.IndexedSpec, depth),
		slots:    make(chan struct{}, depth),
		inflight: map[int]job{},
		ids:      map[int64]struct{}{},
	}
	if !o.cacheOff {
		s.cache = newVerdictCache()
	}
	return s
}

// Start launches the worker pool. ctx cancels in-flight analyses; work
// already admitted still emits exactly one verdict (a failed-analysis
// verdict when cancelled, whether or not its analysis had started).
func (s *Service) Start(ctx context.Context) {
	if s.started {
		return
	}
	s.started = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		crawlerbox.AnalyzeStream(ctx, s.analyzer.Analyze, s.jobs, s.o.workers,
			func(res crawlerbox.CorpusResult) {
				s.mu.Lock()
				j := s.inflight[res.Index]
				delete(s.inflight, res.Index)
				s.mu.Unlock()
				<-s.slots
				s.complete(j, tracestore.VerdictOf(j.id, res.Analysis, res.Err))
			})
	}()
}

// Submit admits one reported message: admission control, cache consult,
// then either an immediate cached emission or a queued fresh analysis.
// Submissions are totally ordered. A fresh analysis first waits for a
// queue slot (backpressure) until a worker frees one or ctx is cancelled;
// only then is the spec journaled and its ID taken, so a submission that
// gives up leaves no trace and can be retried. A cache hit never waits.
// An ID already accepted fails with ErrDuplicateID before anything is
// journaled.
func (s *Service) Submit(ctx context.Context, spec Spec) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.submitLocked(ctx, spec, false)
}

// submitLocked is the admission path; callers hold admitMu. resumed marks
// specs re-admitted from a recovered journal, which are not re-journaled.
func (s *Service) submitLocked(ctx context.Context, spec Spec, resumed bool) error {
	if !s.started {
		return errors.New("ingest: service not started")
	}
	if s.draining {
		return ErrDraining
	}
	if _, dup := s.ids[spec.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, spec.ID)
	}
	s.mu.Lock()
	if s.o.maxPending > 0 && s.pending >= s.o.maxPending {
		s.counters.Rejected++
		s.mu.Unlock()
		return ErrOverloaded
	}
	s.mu.Unlock()

	// The consult is exact: only admission, which admitMu serializes,
	// adds a key, and a completion only turns an in-flight key into a
	// stored one — a hit either way.
	key := s.keyer(spec.Raw)
	cacheable := key != "" && s.cache != nil
	fresh := !cacheable || !s.cache.has(key)
	if fresh {
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if !resumed {
		if err := s.log.AppendSpec(spec); err != nil {
			if fresh {
				<-s.slots
			}
			return fmt.Errorf("ingest: journaling spec %d: %w", spec.ID, err)
		}
	}
	s.ids[spec.ID] = struct{}{}
	s.mu.Lock()
	s.counters.Submitted++
	s.mu.Unlock()

	if fresh {
		if cacheable {
			s.cache.admit(key, spec.ID)
		}
		s.mu.Lock()
		if key == "" {
			s.counters.Keyless++
		}
		s.counters.Fresh++
		s.pending++
		idx := s.nextJob
		s.nextJob++
		// Registered before the send: a worker may complete the job
		// before the send returns.
		s.inflight[idx] = job{id: spec.ID, key: key}
		s.mu.Unlock()
		s.jobs <- crawlerbox.IndexedSpec{Index: idx, Spec: crawlerbox.MessageSpec{Raw: spec.Raw, ID: spec.ID, At: spec.At}}
		return nil
	}

	adm, v, sourceID := s.cache.admit(key, spec.ID)
	s.mu.Lock()
	s.counters.CacheHits++
	if adm == admitWait {
		s.pending++
	}
	s.mu.Unlock()
	if adm == admitHit {
		s.emit(cachedEmission(spec.ID, key, sourceID, v), true)
		return s.emitError()
	}
	return nil
}

// complete records a fresh verdict, fills the cache entry, and flushes
// any waiters as cached emissions.
func (s *Service) complete(j job, v tracestore.Verdict) {
	s.emit(Emitted{ID: j.id, Provenance: ProvenanceFresh, Key: j.key, Verdict: v}, true)
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
	if j.key == "" || s.cache == nil {
		return
	}
	waiters, sourceID := s.cache.complete(j.key, v)
	for _, id := range waiters {
		s.emit(cachedEmission(id, j.key, sourceID, v), true)
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
	}
}

// cachedEmission re-emits a stored verdict for submission id, rewriting
// the row's ID and recording the source analysis.
func cachedEmission(id int64, key string, sourceID int64, v tracestore.Verdict) Emitted {
	v.ID = id
	return Emitted{ID: id, Provenance: ProvenanceCached, Key: key, CachedFrom: sourceID, Verdict: v}
}

// emit buffers one emission and journals its done record.
func (s *Service) emit(e Emitted, journal bool) {
	var logErr error
	if journal {
		logErr = s.log.AppendDone(e)
	}
	s.mu.Lock()
	s.emitted = append(s.emitted, e)
	if logErr != nil && s.emitErr == nil {
		s.emitErr = logErr
	}
	s.mu.Unlock()
}

// emitError reports the first journal failure, if any.
func (s *Service) emitError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitErr
}

// Resume recovers the ingest log at path: done records re-emit verbatim
// (their provenance preserved, no re-journaling), fresh done records warm
// the cache, and the remaining specs re-enter admission in log order. A
// daemon restarted on its own log therefore neither loses nor re-analyzes
// work. Every recovered ID counts as accepted, so a later Submit of one
// fails with ErrDuplicateID.
//
// The log is read in two passes (openJournal, then journal.each). The first
// decodes the done records and the spec IDs, and fails a log with a
// duplicate spec ID or a done record for an unknown ID before anything is
// admitted. The second never decodes a checkpointed spec's message, and
// copies an admitted one once, as it admits it: recovery holds the done
// records and the specs in flight, not the whole journal. Resume only
// reads path, so the service's own Log may be appending to the same file.
func (s *Service) Resume(ctx context.Context, path string) error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if !s.started {
		return errors.New("ingest: service not started")
	}
	j, err := openJournal(path)
	if err != nil {
		return err
	}
	defer j.ev.Close()
	s.mu.Lock()
	s.emitted = slices.Grow(s.emitted, j.specs)
	s.mu.Unlock()
	return j.each(func(id int64, payload []byte) error {
		if e, ok := j.done[id]; ok {
			s.resumeDone(e)
			return nil
		}
		spec, err := decodeSpec(payload)
		if err != nil {
			return fmt.Errorf("ingest: decoding spec record: %w", err)
		}
		return s.submitLocked(ctx, spec, true)
	}, nil)
}

// resumeDone accepts a checkpointed spec: it re-emits the spec's done
// record e without journaling it and counts it; a fresh done record also
// warms the cache. Callers hold admitMu.
func (s *Service) resumeDone(e Emitted) {
	s.ids[e.ID] = struct{}{}
	if s.cache != nil && e.Provenance == ProvenanceFresh && e.Key != "" {
		s.cache.warm(e.Key, e.ID, e.Verdict)
	}
	s.mu.Lock()
	s.counters.Submitted++
	s.counters.Resumed++
	if e.Provenance == ProvenanceCached {
		s.counters.CacheHits++
	} else {
		s.counters.Fresh++
		if e.Key == "" {
			s.counters.Keyless++
		}
	}
	s.mu.Unlock()
	s.emit(e, false)
}

// Drain stops intake, waits for every in-flight analysis and waiter
// flush, and returns the sorted Result. The service cannot be reused.
func (s *Service) Drain() (*Result, error) {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		return nil, errors.New("ingest: already drained")
	}
	s.draining = true
	s.admitMu.Unlock()
	close(s.jobs)
	s.wg.Wait()
	if err := s.log.Close(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.emitErr != nil {
		return nil, s.emitErr
	}
	sort.Slice(s.emitted, func(i, j int) bool { return s.emitted[i].ID < s.emitted[j].ID })
	return &Result{Emitted: s.emitted, Counters: s.counters}, nil
}

// Stats returns a point-in-time copy of the counters plus the current
// pending depth — the daemon's /api/stats payload.
func (s *Service) Stats() (Counters, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters, s.pending
}

// Emission returns the verdict already emitted for message id, if any —
// the daemon's /api/verdict lookup. A submission still in flight (or
// never submitted) reports false.
func (s *Service) Emission(id int64) (Emitted, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.emitted {
		if s.emitted[i].ID == id {
			return s.emitted[i], true
		}
	}
	return Emitted{}, false
}
